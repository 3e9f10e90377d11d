package mapreduce

import (
	"fmt"
	"math"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// Config tunes the execution engine.
type Config struct {
	// ChunkBytes is the I/O granularity tasks use when streaming data
	// (Hadoop's io.file.buffer / transfer chunking). Default 2 MB.
	ChunkBytes float64
	// WriteAheadChunks is the write-behind window: how many output
	// chunks a task keeps in flight concurrently. HDFS clients buffer
	// and stream writes ahead of the application, which is exactly why
	// an aggressive writer floods an uncontrolled datanode queue
	// ("TeraGen's I/Os are sent to storage as soon as they come").
	// Default 8 (≈64 MB in flight per stream at the 8 MB chunk size).
	WriteAheadChunks int
	// ShuffleBufferBytes is the reduce-side in-memory shuffle buffer:
	// a reduce whose expected shuffle partition fits entirely within it
	// merges in memory (no spill write, no merge read-back), as Hadoop
	// does. Default 2 GB (25% of the 8 GB reduce heap).
	ShuffleBufferBytes float64
}

// Table 1's Hadoop settings that no experiment varies. Fair
// Scheduler preemption is always on.
const (
	// slowstartFraction is the fraction of maps that must finish before
	// reduces become schedulable (mapreduce.job.reduce.slowstart).
	slowstartFraction = 0.05
	// shuffleParallelism is the number of concurrent fetch streams per
	// reduce task (mapreduce.reduce.shuffle.parallelcopies).
	shuffleParallelism = 4
	// preemptionTimeout is how long a job must sit below its fair share
	// before over-share jobs lose tasks, in seconds.
	preemptionTimeout = 5.0
)

func (c *Config) defaults() {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 2e6
	}
	if c.WriteAheadChunks <= 0 {
		c.WriteAheadChunks = 8
	}
	if c.ShuffleBufferBytes <= 0 {
		c.ShuffleBufferBytes = 2e9
	}
}

// Runtime executes MapReduce jobs on a simulated cluster.
type Runtime struct {
	eng     *sim.Engine
	cluster *cluster.Cluster
	nn      *dfs.Namenode
	cfg     Config
	// slowstart is slowstartFraction; only this package's tests move it.
	slowstart float64
	fair      *fairScheduler
	jobs      []*Job
	nextID    int
	onDone    []func(*Job)
	pools     map[string]*pool

	// The coordinator shard, where the runtime's own state lives, and
	// the metadata shards hosting the namenode partitions (empty: the
	// coordinator shard hosts them). See sharded.go.
	coordShard *sim.Shard
	metaShards []*sim.Shard

	// Failure-injection counters (see failure.go).
	failedTasks uint64
	rerunMaps   uint64
}

// NewRuntime wires an execution engine onto a cluster and namenode.
func NewRuntime(eng *sim.Engine, c *cluster.Cluster, nn *dfs.Namenode, cfg Config) *Runtime {
	cfg.defaults()
	rt := &Runtime{
		eng: eng, cluster: c, nn: nn, cfg: cfg, slowstart: slowstartFraction, pools: make(map[string]*pool),
		coordShard: c.CoordShard(),
		metaShards: c.MetaShards(),
	}
	rt.fair = newFairScheduler(rt)
	rt.fair.startPreemptionMonitor()
	return rt
}

// pool is one Fair Scheduler queue with aggregate resource caps.
type pool struct {
	maxCores  int
	maxMemGB  float64
	usedCores int
	usedMemGB float64
}

// DefinePool declares a Fair Scheduler pool with aggregate caps
// (0 = unlimited for that dimension). Jobs reference it by name via
// JobSpec.Pool. Redefining a pool updates its caps.
func (rt *Runtime) DefinePool(name string, maxCores int, maxMemGB float64) {
	if p, ok := rt.pools[name]; ok {
		p.maxCores = maxCores
		p.maxMemGB = maxMemGB
		return
	}
	rt.pools[name] = &pool{maxCores: maxCores, maxMemGB: maxMemGB}
}

// poolFor returns the job's pool, creating an uncapped one on first use
// so an undeclared pool name still groups jobs.
func (rt *Runtime) poolFor(j *Job) *pool {
	if j.Spec.Pool == "" {
		return nil
	}
	p, ok := rt.pools[j.Spec.Pool]
	if !ok {
		p = &pool{}
		rt.pools[j.Spec.Pool] = p
	}
	return p
}

// poolAdmits reports whether the job's pool can take one more task of
// the given memory.
func (rt *Runtime) poolAdmits(j *Job, memGB float64) bool {
	p := rt.poolFor(j)
	if p == nil {
		return true
	}
	if p.maxCores > 0 && p.usedCores+1 > p.maxCores {
		return false
	}
	if p.maxMemGB > 0 && p.usedMemGB+memGB > p.maxMemGB {
		return false
	}
	return true
}

func (rt *Runtime) poolCharge(j *Job, memGB float64) {
	if p := rt.poolFor(j); p != nil {
		p.usedCores++
		p.usedMemGB += memGB
	}
}

func (rt *Runtime) poolRelease(j *Job, memGB float64) {
	if p := rt.poolFor(j); p != nil {
		p.usedCores--
		p.usedMemGB -= memGB
	}
}

// Engine returns the simulation engine driving this runtime.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Cluster returns the underlying cluster.
func (rt *Runtime) Cluster() *cluster.Cluster { return rt.cluster }

// Namenode returns the DFS namenode.
func (rt *Runtime) Namenode() *dfs.Namenode { return rt.nn }

// OnJobDone registers a callback invoked whenever any job completes.
func (rt *Runtime) OnJobDone(fn func(*Job)) { rt.onDone = append(rt.onDone, fn) }

// Jobs returns all submitted jobs in submission order.
func (rt *Runtime) Jobs() []*Job { return rt.jobs }

// Submit schedules a job for execution after delay seconds of virtual
// time. Input files are created in the DFS at submission so map
// locality is well defined.
func (rt *Runtime) Submit(spec JobSpec, delay float64) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eff := spec.withDefaults()
	app := eff.App
	if app == "" {
		app = iosched.AppID(fmt.Sprintf("%s-%d", eff.Name, rt.nextID))
	}
	seq := rt.nextID
	rt.nextID++

	job := &Job{rt: rt, Spec: eff, App: app, seq: seq, state: Pending}
	// Attribute the job in the cluster's share tree: this is where the
	// submission-time weight and tenant membership enter the runtime
	// control plane. A reserved tenant name is an input error, surfaced
	// here like any other spec problem.
	tree := rt.cluster.Shares()
	if err := tree.Bind(app, eff.Tenant, eff.Weight); err != nil {
		return nil, err
	}
	// The job's I/O carries the index the bind gave app.
	job.idx, _ = tree.Lookup(app)
	// A reused AppID (consecutive Hive stages, resubmitted jobs) may
	// have been retired at the broker when its previous job finished.
	rt.cluster.ReviveApp(job.idx)
	rt.jobs = append(rt.jobs, job)
	rt.eng.Schedule(delay, func() { rt.start(job) })
	return job, nil
}

// start materializes the job's input file and task set and hands the
// tasks to the fair scheduler. On a fabric with a metadata plane,
// input placement runs on the metadata shards (one round trip of
// namenode RPC latency before the first wave launches).
func (rt *Runtime) start(job *Job) {
	job.SubmitTime = rt.eng.Now()
	spec := job.Spec
	if spec.InputBytes > 0 {
		rt.placeInput(job, fmt.Sprintf("%s-%d/input", spec.Name, job.seq), spec.InputBytes)
		return
	}
	rt.materialize(job, nil)
}

// materialize builds the job's task set from its input file (nil for
// generator jobs) and hands the tasks to the fair scheduler.
func (rt *Runtime) materialize(job *Job, f *dfs.File) {
	spec := job.Spec
	if f != nil {
		job.input = f
		for i := range f.Blocks {
			job.maps = append(job.maps, &mapTask{job: job, index: i, block: &f.Blocks[i]})
		}
		// NumMaps may demand more waves than blocks (rare); cap at
		// block count for input jobs.
	} else {
		// Generator job: synthetic splits, no input reads.
		splitOut := spec.DirectOutputBytes / float64(spec.NumMaps)
		splitInter := spec.MapOutputBytes / float64(spec.NumMaps)
		for i := 0; i < spec.NumMaps; i++ {
			job.maps = append(job.maps, &mapTask{
				job: job, index: i,
				genOutBytes:   splitOut,
				genInterBytes: splitInter,
			})
		}
	}
	for i := 0; i < spec.NumReduces; i++ {
		job.reduces = append(job.reduces, &reduceTask{job: job, index: i})
	}
	rt.fair.pump()
}

// Job is one running or completed application.
type Job struct {
	rt   *Runtime
	Spec JobSpec
	App  iosched.AppID
	idx  iosched.AppIdx // App's index in the cluster's share tree
	seq  int

	SubmitTime  float64
	StartTime   float64
	MapDoneTime float64
	EndTime     float64

	input   *dfs.File
	maps    []*mapTask
	reduces []*reduceTask

	mapsDone    int
	reducesDone int
	usedCores   int
	started     bool
	state       State
}

// State returns the job's lifecycle phase.
func (j *Job) State() State { return j.state }

// Done reports successful completion.
func (j *Job) Done() bool { return j.state == Done }

// Failed reports unrecoverable failure (input data lost).
func (j *Job) Failed() bool { return j.state == Failed }

// finished reports that the job needs no further scheduling.
func (j *Job) finished() bool { return j.state == Done || j.state == Failed }

// fail marks the job failed. In-flight task callbacks drain; no new
// tasks are scheduled. Completion callbacks fire so waiters observe
// the terminal state.
func (j *Job) fail() {
	if j.finished() {
		return
	}
	j.state = Failed
	j.EndTime = j.rt.eng.Now()
	// Release every slot the job still holds; the killed attempts'
	// in-flight callbacks die on their attempt guards.
	for _, m := range j.maps {
		if m.state == taskRunning {
			m.preempt()
		}
	}
	for _, r := range j.reduces {
		if r.state == taskRunning {
			r.restart()
		}
	}
	for _, fn := range j.rt.onDone {
		fn(j)
	}
	j.rt.retireIfUnused(j)
	j.rt.fair.pump()
}

// UsedCores returns the job's currently allocated CPU slots.
func (j *Job) UsedCores() int { return j.usedCores }

// MapsDone returns the completed map count.
func (j *Job) MapsDone() int { return j.mapsDone }

// NumMaps returns the total map count.
func (j *Job) NumMaps() int { return len(j.maps) }

// NumReduces returns the reduce count.
func (j *Job) NumReduces() int { return len(j.reduces) }

// ReducesDone returns the completed reduce count.
func (j *Job) ReducesDone() int { return j.reducesDone }

// Result snapshots the job's timings.
func (j *Job) Result() Result {
	return Result{
		App:         j.App,
		Name:        j.Spec.Name,
		SubmitTime:  j.SubmitTime,
		StartTime:   j.StartTime,
		MapDoneTime: j.MapDoneTime,
		EndTime:     j.EndTime,
	}
}

// Runtime returns the job's runtime (NaN while still in flight; for a
// failed job, submit→failure).
func (j *Job) Runtime() float64 {
	if !j.finished() {
		return math.NaN()
	}
	return j.EndTime - j.SubmitTime
}

// coreDemand counts unfinished tasks — the cores the job could use.
func (j *Job) coreDemand() int {
	d := 0
	for _, m := range j.maps {
		if m.state != taskDone {
			d++
		}
	}
	for _, r := range j.reduces {
		if r.state != taskDone {
			d++
		}
	}
	return d
}

// reducesEligible reports whether the slowstart threshold has passed.
func (j *Job) reducesEligible() bool {
	if len(j.maps) == 0 {
		return true
	}
	need := int(math.Ceil(j.rt.slowstart * float64(len(j.maps))))
	if need < 1 {
		need = 1
	}
	return j.mapsDone >= need
}

func (j *Job) noteTaskStart() {
	if !j.started {
		j.started = true
		j.StartTime = j.rt.eng.Now()
		j.state = Running
	}
}

func (j *Job) noteMapDone(m *mapTask) {
	j.mapsDone++
	if j.mapsDone == len(j.maps) {
		j.MapDoneTime = j.rt.eng.Now()
	}
	// Feed the new map output to every reduce.
	if j.Spec.MapOutputBytes > 0 && len(j.reduces) > 0 {
		per := m.interBytes() / float64(len(j.reduces))
		for _, r := range j.reduces {
			r.addSegment(segment{srcNode: m.node, bytes: per})
		}
	}
	// The shuffle barrier lives with the reduce runs: running reduces
	// learn "all maps done" by marker message, not by reading the
	// coordinator's counters.
	if j.mapsDone == len(j.maps) {
		for _, r := range j.reduces {
			if r.state == taskRunning {
				j.rt.toNode(r.rrun.node, r.rrun.markAllMapsDone)
			}
		}
	}
	j.maybeFinish()
}

func (j *Job) noteReduceDone() {
	j.reducesDone++
	j.maybeFinish()
}

func (j *Job) maybeFinish() {
	if j.finished() {
		return
	}
	if j.mapsDone == len(j.maps) && j.reducesDone == len(j.reduces) {
		j.state = Done
		j.EndTime = j.rt.eng.Now()
		if len(j.reduces) == 0 {
			j.MapDoneTime = j.EndTime
		}
		for _, fn := range j.rt.onDone {
			fn(j)
		}
		j.rt.retireIfUnused(j)
	}
}

// retireIfUnused retires j's app at the broker once no unfinished job
// shares it, so stale straggler reports cannot resurrect its totals.
func (rt *Runtime) retireIfUnused(j *Job) {
	for _, other := range rt.jobs {
		if other.idx == j.idx && !other.finished() {
			return
		}
	}
	rt.cluster.RetireApp(j.idx)
}

// chunked runs fn over size bytes in chunkBytes units on eng,
// sequentially: fn(chunkSize, next) must call next() when the chunk
// completes. done fires after the final chunk.
func chunked(eng *sim.Engine, chunkBytes, size float64, fn func(chunk float64, next func()), done func()) {
	windowed(eng, chunkBytes, size, 1, fn, done)
}

// windowed is the pipelined generalization of chunked: up to window
// chunks may be in flight concurrently (write-behind). done fires when
// every chunk has completed.
func windowed(eng *sim.Engine, chunkBytes, size float64, window int, fn func(chunk float64, next func()), done func()) {
	if size <= 0 {
		eng.Schedule(0, done)
		return
	}
	if window < 1 {
		window = 1
	}
	remaining := size
	outstanding := 0
	var launch func()
	completeOne := func() {
		outstanding--
		if remaining > 0 {
			launch()
		} else if outstanding == 0 {
			done()
		}
	}
	launch = func() {
		if remaining <= 0 {
			return
		}
		c := chunkBytes
		if remaining < c {
			c = remaining
		}
		remaining -= c
		outstanding++
		fn(c, completeOne)
	}
	for i := 0; i < window && remaining > 0; i++ {
		launch()
	}
}
