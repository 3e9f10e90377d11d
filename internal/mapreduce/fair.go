package mapreduce

import (
	"ibis/internal/cluster"
)

// fairScheduler allocates CPU slots (cores) and memory to pending
// tasks, modeling the Hadoop Fair Scheduler the paper's Table 1
// configures: the job furthest below its weighted fair share is served
// first, map tasks prefer nodes holding their input block, and per-job
// quotas pin CPU allocations the way the experiments pin them (e.g.
// WordCount gets exactly half the 96 cores).
type fairScheduler struct {
	rt      *Runtime
	pumping bool
	repump  bool
	// belowSince records when each job fell below its fair share, for
	// the preemption timeout.
	belowSince map[*Job]float64
	preempted  uint64
	// reservations implements YARN-style container reservation: a node
	// reserved for a job's reduce stops accepting new maps, so the big
	// (8 GB) reduce container can eventually fit. Without this, 2 GB
	// maps would recycle node memory forever and reduces could never
	// start during the map phase — the paper's Figure 6a explicitly
	// notes first-wave shuffle overlaps the map phase.
	reservations map[*cluster.Node]*Job
}

func newFairScheduler(rt *Runtime) *fairScheduler {
	return &fairScheduler{
		rt:           rt,
		belowSince:   make(map[*Job]float64),
		reservations: make(map[*cluster.Node]*Job),
	}
}

// Preempted returns how many map attempts have been killed by
// preemption.
func (f *fairScheduler) Preempted() uint64 { return f.preempted }

// startPreemptionMonitor arms the Fair Scheduler preemption loop
// (fairscheduler.preemption=true, 5 s in Table 1): once per second it
// measures each starved job's deficit; a job starved past the timeout
// triggers kills of the youngest over-share map attempts.
func (f *fairScheduler) startPreemptionMonitor() {
	eng := f.rt.eng
	var tick func()
	tick = func() {
		f.checkPreemption()
		eng.ScheduleDaemon(1, tick)
	}
	eng.ScheduleDaemon(1, tick)
}

// fairShare computes each active job's weighted fair share of the
// cluster cores, capped by quota and by remaining demand.
func (f *fairScheduler) fairShare() map[*Job]int {
	total := f.rt.cluster.TotalCores()
	var active []*Job
	sumW := 0.0
	for _, j := range f.rt.jobs {
		if j.finished() || (len(j.maps) == 0 && len(j.reduces) == 0) {
			continue
		}
		active = append(active, j)
		sumW += j.Spec.CPUWeight
	}
	shares := make(map[*Job]int, len(active))
	for _, j := range active {
		share := int(float64(total) * j.Spec.CPUWeight / sumW)
		if j.Spec.CPUQuota > 0 && share > j.Spec.CPUQuota {
			share = j.Spec.CPUQuota
		}
		if demand := j.coreDemand(); share > demand {
			share = demand
		}
		shares[j] = share
	}
	return shares
}

// checkPreemption enforces fair shares after the timeout.
func (f *fairScheduler) checkPreemption() {
	now := f.rt.eng.Now()
	shares := f.fairShare()
	deficit := 0
	for j, share := range shares {
		if j.usedCores < share {
			if _, ok := f.belowSince[j]; !ok {
				f.belowSince[j] = now
			}
			if now-f.belowSince[j] >= preemptionTimeout {
				deficit += share - j.usedCores
			}
		} else {
			delete(f.belowSince, j)
		}
	}
	if deficit == 0 {
		return
	}
	// Kill youngest running maps of jobs above their share, most
	// over-share first.
	for deficit > 0 {
		var victim *Job
		over := 0
		for j, share := range shares {
			if j.usedCores-share > over && f.youngestRunningMap(j) != nil {
				over = j.usedCores - share
				victim = j
			}
		}
		if victim == nil {
			break
		}
		m := f.youngestRunningMap(victim)
		m.preempt()
		f.preempted++
		deficit--
	}
	f.pump()
}

// youngestRunningMap returns the running map with the highest index
// (the most recently launched under in-order assignment).
func (f *fairScheduler) youngestRunningMap(j *Job) *mapTask {
	for i := len(j.maps) - 1; i >= 0; i-- {
		if j.maps[i].state == taskRunning {
			return j.maps[i]
		}
	}
	return nil
}

// pump assigns as many pending tasks to free slots as possible. It is
// re-entrancy-safe: a pump triggered from within a pump is coalesced
// into another pass.
func (f *fairScheduler) pump() {
	if f.pumping {
		f.repump = true
		return
	}
	f.pumping = true
	defer func() { f.pumping = false }()
	for {
		f.repump = false
		for _, n := range f.rt.cluster.Nodes {
			if n.Dead {
				continue
			}
			for n.FreeCores() > 0 {
				if !f.assignOne(n) {
					break
				}
			}
		}
		f.reserveForReduces()
		if !f.repump {
			return
		}
	}
}

// assignOne places the best pending task on node n; false if nothing
// fits.
func (f *fairScheduler) assignOne(n *cluster.Node) bool {
	// A reserved node only admits the reserving job's reduce. Stale
	// reservations (job done or nothing left to place) are dropped so
	// the node cannot be blocked forever.
	if owner, reserved := f.reservations[n]; reserved {
		if owner.finished() || f.pendingReduces(owner) == 0 {
			delete(f.reservations, n)
		} else if r := f.pickReduce(owner, n); r != nil {
			delete(f.reservations, n)
			f.launchReduce(n, owner, r)
			return true
		} else {
			return false
		}
	}
	job := f.pickJob(n)
	if job == nil {
		return false
	}
	// Reduces launch ahead of maps once slowstart has passed, so the
	// shuffle overlaps the remaining map waves (the reduce-slot cap in
	// pickReduce keeps maps from starving).
	if r := f.pickReduce(job, n); r != nil {
		f.launchReduce(n, job, r)
		return true
	}
	if m := f.pickMap(job, n); m != nil {
		f.launchMap(n, job, m)
		return true
	}
	return false
}

// reserveForReduces places reservations for jobs whose eligible reduces
// cannot fit on any node. Called at the end of each pump pass.
func (f *fairScheduler) reserveForReduces() {
	maxReservations := len(f.rt.cluster.Nodes) / 4
	if maxReservations < 1 {
		maxReservations = 1
	}
	for _, j := range f.rt.jobs {
		if j.finished() || !j.reducesEligible() {
			continue
		}
		// Don't reserve for reduces the headroom guard would refuse:
		// a reservation for an unplaceable reduce just blocks maps.
		if !f.reduceHeadroomOK(j) {
			continue
		}
		waiting := f.pendingReduces(j)
		if waiting == 0 {
			continue
		}
		held := 0
		for _, owner := range f.reservations {
			if owner == j {
				held++
			}
		}
		for held < maxReservations && held < waiting {
			n := f.bestReservable(j)
			if n == nil {
				break
			}
			f.reservations[n] = j
			held++
		}
	}
}

// pendingReduces counts schedulable-but-unplaced reduces (respecting
// the reduce-slot cap).
func (f *fairScheduler) pendingReduces(j *Job) int {
	running, pending := 0, 0
	for _, r := range j.reduces {
		switch r.state {
		case taskRunning:
			running++
		case taskPending:
			pending++
		}
	}
	room := f.maxReduceSlots(j) - running
	if room < 0 {
		room = 0
	}
	if pending < room {
		return pending
	}
	return room
}

// bestReservable picks the unreserved node with the most free memory
// (closest to fitting the reduce container).
func (f *fairScheduler) bestReservable(j *Job) *cluster.Node {
	var best *cluster.Node
	for _, n := range f.rt.cluster.Nodes {
		if n.Dead {
			continue
		}
		if _, taken := f.reservations[n]; taken {
			continue
		}
		if n.FreeMemGB() >= j.Spec.ReduceMemGB {
			continue // fits already; no reservation needed
		}
		if best == nil || n.FreeMemGB() > best.FreeMemGB() {
			best = n
		}
	}
	return best
}

// pickJob returns the schedulable job with the lowest weighted usage
// (usedCores / CPUWeight); ties break by submission order.
func (f *fairScheduler) pickJob(n *cluster.Node) *Job {
	var best *Job
	var bestDeficit float64
	for _, j := range f.rt.jobs {
		// Jobs not yet materialized by start() have no tasks; finished
		// jobs have nothing to schedule.
		if j.finished() || (len(j.maps) == 0 && len(j.reduces) == 0) {
			continue
		}
		if j.Spec.CPUQuota > 0 && j.usedCores >= j.Spec.CPUQuota {
			continue
		}
		if f.pickMap(j, n) == nil && f.pickReduce(j, n) == nil {
			continue
		}
		deficit := float64(j.usedCores) / j.Spec.CPUWeight
		if best == nil || deficit < bestDeficit {
			best = j
			bestDeficit = deficit
		}
	}
	return best
}

// pickMap returns the best pending map for the node: a data-local one
// if available, otherwise the first pending map.
func (f *fairScheduler) pickMap(j *Job, n *cluster.Node) *mapTask {
	if n.FreeMemGB() < j.Spec.MapMemGB || !f.rt.poolAdmits(j, j.Spec.MapMemGB) {
		return nil
	}
	// Hold back quota headroom for eligible-but-unplaced reduces:
	// otherwise freed cores are instantly recycled into maps and the
	// shuffle can never overlap the map phase.
	if j.Spec.CPUQuota > 0 && j.reducesEligible() {
		if waiting := f.pendingReduces(j); waiting > 0 && j.usedCores >= j.Spec.CPUQuota-waiting {
			return nil
		}
	}
	var firstPending *mapTask
	for _, m := range j.maps {
		if m.state != taskPending {
			continue
		}
		if m.localOn(n) {
			return m
		}
		if firstPending == nil {
			firstPending = m
		}
	}
	return firstPending
}

// maxReduceSlots bounds the cores a job may devote to reduces so that
// shuffling reduces can never starve the maps they are waiting on.
func (f *fairScheduler) maxReduceSlots(j *Job) int {
	limit := j.Spec.CPUQuota
	if limit <= 0 {
		limit = f.rt.cluster.TotalCores()
	}
	half := limit / 2
	if half < 1 {
		half = 1
	}
	return half
}

// waitingReduceMemGB sums the memory held by running reduces whose
// jobs still have unfinished maps — resources parked on the shuffle.
// With a non-empty pool name, only that pool's jobs are counted.
func (f *fairScheduler) waitingReduceMemGB(poolName string) float64 {
	total := 0.0
	for _, j := range f.rt.jobs {
		if j.finished() || j.mapsDone == len(j.maps) {
			continue
		}
		if poolName != "" && j.Spec.Pool != poolName {
			continue
		}
		for _, r := range j.reduces {
			if r.state == taskRunning {
				total += j.Spec.ReduceMemGB
			}
		}
	}
	return total
}

// reduceHeadroomOK reports whether launching one more shuffling reduce
// for job j keeps at least half of the binding memory scope (the job's
// pool if capped, else the whole cluster) available to maps.
func (f *fairScheduler) reduceHeadroomOK(j *Job) bool {
	if j.mapsDone == len(j.maps) {
		return true // nothing left to wait for
	}
	limit := f.clusterMemGB()
	scope := ""
	if p := f.rt.poolFor(j); p != nil && p.maxMemGB > 0 {
		limit = p.maxMemGB
		scope = j.Spec.Pool
	}
	return f.waitingReduceMemGB(scope)+j.Spec.ReduceMemGB <= 0.5*limit
}

// clusterMemGB returns the total task memory on the surviving nodes.
func (f *fairScheduler) clusterMemGB() float64 {
	total := 0.0
	for _, n := range f.rt.cluster.Nodes {
		if !n.Dead {
			total += n.MemGB
		}
	}
	return total
}

// pickReduce returns the first schedulable pending reduce. Reduces whose
// job still has maps to run may collectively park on at most half the
// cluster's memory — the headroom guard real YARN applies so early-
// started (slowstart) reduces can never deadlock the maps they wait on.
func (f *fairScheduler) pickReduce(j *Job, n *cluster.Node) *reduceTask {
	if !j.reducesEligible() || n.FreeMemGB() < j.Spec.ReduceMemGB || !f.rt.poolAdmits(j, j.Spec.ReduceMemGB) {
		return nil
	}
	if !f.reduceHeadroomOK(j) {
		return nil
	}
	running := 0
	var candidate *reduceTask
	for _, r := range j.reduces {
		switch r.state {
		case taskRunning:
			running++
		case taskPending:
			if candidate == nil {
				candidate = r
			}
		}
	}
	if candidate == nil || running >= f.maxReduceSlots(j) {
		return nil
	}
	return candidate
}

func (f *fairScheduler) launchMap(n *cluster.Node, j *Job, m *mapTask) {
	m.state = taskRunning
	m.node = n
	n.UsedCores++
	n.UsedMemGB += j.Spec.MapMemGB
	j.usedCores++
	f.rt.poolCharge(j, j.Spec.MapMemGB)
	j.noteTaskStart()
	m.run()
}

func (f *fairScheduler) launchReduce(n *cluster.Node, j *Job, r *reduceTask) {
	r.state = taskRunning
	r.node = n
	n.UsedCores++
	n.UsedMemGB += j.Spec.ReduceMemGB
	j.usedCores++
	f.rt.poolCharge(j, j.Spec.ReduceMemGB)
	j.noteTaskStart()
	r.run()
}

// release frees a map task's slot.
func (f *fairScheduler) release(n *cluster.Node, j *Job, memGB float64) {
	n.UsedCores--
	n.UsedMemGB -= memGB
	j.usedCores--
	f.rt.poolRelease(j, memGB)
}

// releaseReduce frees a reduce task's slot.
func (f *fairScheduler) releaseReduce(n *cluster.Node, j *Job, memGB float64) {
	n.UsedCores--
	n.UsedMemGB -= memGB
	j.usedCores--
	f.rt.poolRelease(j, memGB)
}
