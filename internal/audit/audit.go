// Package audit provides online invariant checking for the IBIS
// schedulers: a set of machine-checked properties derived from the
// paper's correctness claims, evaluated continuously against the live
// request stream via the iosched lifecycle probes.
//
// Invariants checked (names as reported by Checks and Violation):
//
//   - lifecycle: queue/in-flight counters never go negative, latencies
//     are non-negative (all policies);
//   - start-tag-monotonicity: per flow, SFQ start tags never decrease;
//   - tag-consistency: F(r) = S(r) + cost/weight and S(r) ≥ v(arrival)
//     per the SFQ tagging rules;
//   - vtime-monotonicity: the scheduler's virtual time (the start tag
//     of the most recently dispatched request) never decreases;
//   - depth-bound: at dispatch, outstanding requests never exceed the
//     dispatch depth D in force;
//   - work-conservation: when a completion leaves the queue non-empty,
//     the dispatch window is full (inflight ≥ D) — the device never
//     idles against a backlog;
//   - proportional-share: per audit window, any two continuously
//     backlogged flows' normalized service (cost/weight) differs by at
//     most the SFQ(D) fairness bound (D+1)(c_f/w_f + c_g/w_g), within
//     slack (local check; skipped under DSFQ coordination, which
//     intentionally skews local shares);
//   - total-proportional-share: the cluster-wide analog under
//     coordination, comparing flows continuously backlogged on the
//     same set of schedulers;
//   - tenant-proportional-share / total-tenant-proportional-share: the
//     hierarchical analogs with a share tree attached (SetShares):
//     each tenant's aggregate normalized service (total service over
//     the summed effective weights of its qualifying members) is a
//     weighted average of its members' per-flow ratios, so any
//     tenant-pair difference is bounded by the worst member-pair
//     bound — checked per window, locally and cluster-wide;
//   - broker-conservation: the sum of the schedulers' reported local
//     service vectors equals the broker's global totals, checked at
//     every exchange.
//
// Live reweights (share-tree epoch changes) open a bounded
// reconvergence window: share checks are suspended for windows
// overlapping [t, t + RecoveryPeriods × CoordinationPeriod] after a
// change at t, because windowed normalized service mixes service
// earned under two different weights. Tag invariants are NOT relaxed —
// monotonicity and consistency must hold through a reweight, which is
// exactly the tag-time-resolution contract.
//
// The auditor attaches to a cluster in one call (Attach), or to single
// schedulers and brokers directly (Probe, AttachBroker), and
// accumulates Violations; a clean run reports none. Checks
// exposes per-invariant evaluation counts so tests can assert an
// invariant was actually exercised rather than vacuously skipped.
//
// Shards. Each probe — on a scheduler, a broker or the federation root
// — is registered with the simulation shard whose engine drives it.
// When every probe sits on one shard the auditor judges each event as
// it happens. Otherwise it cannot: one event can touch per-scheduler
// flows, the cluster aggregate and the violation list, which parallel
// windows would mutate concurrently. Each scheduler probe then appends
// a value copy of the event to its shard's private log, and Finish
// merges the logs by (event time, shard, log order) and replays them
// through the same invariant battery. A shard's log is already in time
// order (its engine clock is monotonic) and ties across shards go to
// the lower shard, as in the trace merge, so every check count and
// violation is a pure function of the simulated system, independent of
// worker count.
package audit

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ibis/internal/broker"
	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/storage"
)

// Options tune the auditor.
type Options struct {
	// Window is the proportional-share audit period in virtual seconds
	// (default 5).
	Window float64
	// ShareSlack is the relative slack multiplied onto the theoretical
	// fairness bound to absorb device-model noise and window-boundary
	// effects (default 0.5, i.e. bound × 1.5).
	ShareSlack float64
	// MinWindowRequests is the minimum completions a flow needs inside
	// a window before it participates in share checks (default 4).
	MinWindowRequests int
	// BacklogSlack is the fraction of a window a flow's queue may be
	// empty while still counting as continuously backlogged for the
	// share checks (default 0.02). The fairness bound only applies to
	// backlogged flows; a small tolerance keeps closed-loop workloads
	// with instantaneous resubmission gaps eligible.
	BacklogSlack float64
	// CoordinationPeriod is the broker exchange period in seconds,
	// used to size the staleness allowance of the cluster-level share
	// check (default 1, matching the paper's heartbeat piggyback).
	CoordinationPeriod float64
	// FederationStaleness is the extra staleness (seconds) a federated
	// coordination plane adds on top of the exchange period: service on
	// another partition is visible only after that partition's uplink
	// and this partition's downlink, so the cluster wires two
	// aggregation periods plus slack here. Non-zero switches the
	// cluster-level share check into the share-federated regime: same
	// invariant, wider — and still CI-enforced — staleness term.
	FederationStaleness float64
	// RecoveryPeriods is K: how many coordination periods after a
	// degraded scheduler recovers the cluster-level share bound is
	// still relaxed before it must re-tighten (default 5).
	RecoveryPeriods int
	// MaxViolations caps stored violations; excess ones are counted
	// but dropped (default 256).
	MaxViolations int
}

func (o *Options) defaults() {
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.ShareSlack <= 0 {
		o.ShareSlack = 0.5
	}
	if o.MinWindowRequests <= 0 {
		o.MinWindowRequests = 4
	}
	if o.BacklogSlack <= 0 {
		o.BacklogSlack = 0.02
	}
	if o.CoordinationPeriod <= 0 {
		o.CoordinationPeriod = 1
	}
	if o.RecoveryPeriods <= 0 {
		o.RecoveryPeriods = 5
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 256
	}
}

// Violation is one observed invariant breach.
type Violation struct {
	// Time is the virtual time of the violating event (for window
	// checks, the window end).
	Time float64
	// Invariant names the breached property (see package comment).
	Invariant string
	// Node and Dev locate the scheduler (-1/"" for cluster-level and
	// broker checks).
	Node int
	Dev  string
	// App is the implicated application, when one is identifiable.
	App iosched.AppID
	// Detail is a human-readable description with the numbers.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	where := "cluster"
	if v.Node >= 0 {
		where = fmt.Sprintf("node%d/%s", v.Node, v.Dev)
	}
	return fmt.Sprintf("t=%.3fs %s [%s] app=%s: %s", v.Time, v.Invariant, where, v.App, v.Detail)
}

// Auditor evaluates scheduler invariants online. It is not safe for
// concurrent use; the simulation is single-threaded by construction.
type Auditor struct {
	opts       Options
	scheds     []*schedState
	byKey      map[string]*schedState
	cluster    *clusterState
	brokers    []*broker.Broker
	violations []Violation
	dropped    uint64
	checks     map[string]uint64
	lastTime   float64

	// Degradation bookkeeping (see NoteDegradeStart): skips are the
	// cluster-level relaxation intervals — each degraded stretch plus
	// K recovery periods of grace — and openSkips tracks the interval
	// each currently-degraded scheduler opened.
	skips     []span
	openSkips map[string]int

	// Epoch bookkeeping (see NoteEpochChange): reconvergence intervals
	// around live weight changes, during which share checks (but not
	// tag checks) are suspended.
	epochSkips []span
	// shares attributes apps to tenants for the hierarchical checks
	// (nil disables them).
	shares broker.ShareView

	// logs holds one sample log per shard with a probe, in shard
	// order; deferred (more than one) means events are judged at
	// Finish.
	logs     []*shardLog
	deferred bool
}

// SetShares attaches the share tree view used to group flows into
// tenants for the hierarchical proportional-share invariants.
func (a *Auditor) SetShares(v broker.ShareView) { a.shares = v }

// NoteEpochChange records a live weight change at virtual time t: all
// share checks are suspended for windows overlapping the reconvergence
// interval [t, t + RecoveryPeriods × CoordinationPeriod]. Wire it to
// shares.Tree.OnChange. Windows past the interval are checked again —
// the system must actually reconverge to the new targets.
func (a *Auditor) NoteEpochChange(t float64) {
	a.count("epoch-noted")
	grace := float64(a.opts.RecoveryPeriods) * a.opts.CoordinationPeriod
	a.epochSkips = append(a.epochSkips, span{from: t, to: t + grace})
}

// epochSkipWindow reports whether [ws, we) overlaps any reweight
// reconvergence interval.
func (a *Auditor) epochSkipWindow(ws, we float64) bool {
	for _, sp := range a.epochSkips {
		if sp.from < we && ws < sp.to {
			return true
		}
	}
	return false
}

// span is a virtual-time interval; to is +Inf while still open.
type span struct{ from, to float64 }

// New creates an auditor.
func New(opts Options) *Auditor {
	opts.defaults()
	return &Auditor{
		opts:      opts,
		byKey:     make(map[string]*schedState),
		checks:    make(map[string]uint64),
		openSkips: make(map[string]int),
	}
}

// Probe returns the lifecycle probe auditing one scheduler, labeled
// with its node index and device name; shard is the simulation shard
// whose engine drives the scheduler. SFQ schedulers get the full
// invariant set; other policies get lifecycle sanity checks only.
// Register every probe before the simulation runs.
func (a *Auditor) Probe(shard, node int, dev string, sched iosched.Scheduler) iosched.Probe {
	s := &schedState{
		a:     a,
		log:   a.logFor(shard),
		node:  node,
		dev:   dev,
		id:    len(a.scheds),
		flows: make(map[iosched.AppID]*flowAudit),
	}
	if sfq, ok := sched.(*iosched.SFQ); ok {
		s.sfq = true
		s.coordinated = sfq.Coordinated()
	} else if rb, ok := sched.(readSFQBacked); ok {
		// cgroups Weight: reads pass through an inner SFQ, writes are
		// uncontrolled pass-through — audit the controlled half only.
		s.sfq = true
		s.readsOnly = true
		s.coordinated = rb.ReadSFQ().Coordinated()
	}
	if s.coordinated {
		if a.cluster == nil {
			a.cluster = &clusterState{a: a, flows: make(map[iosched.AppID]*clusterFlow)}
		}
		a.cluster.members++
	}
	a.scheds = append(a.scheds, s)
	a.byKey[schedKey(node, dev)] = s
	return s
}

// logFor returns shard's sample log, creating it on first use.
func (a *Auditor) logFor(shard int) *shardLog {
	i, ok := slices.BinarySearchFunc(a.logs, shard, func(l *shardLog, s int) int { return cmp.Compare(l.shard, s) })
	if !ok {
		a.logs = slices.Insert(a.logs, i, &shardLog{shard: shard})
		a.deferred = len(a.logs) > 1
	}
	return a.logs[i]
}

func schedKey(node int, dev string) string { return fmt.Sprintf("%d/%s", node, dev) }

// NoteDegradeStart records that the scheduler at (node, dev) suspended
// DSFQ coordination at time t. The auditor switches invariant regimes
// for it: the cluster-wide total-share bound stops applying (the
// degraded member no longer tracks remote service), the *local*
// proportional-share bound starts applying to it (the guarantee
// degradation preserves), and per-flow start-tag monotonicity is reset
// once — suspension clamps accumulated delay-rule debt down to the
// scheduler's virtual time, which legitimately regresses tags at that
// single instant. Call it from the scheduler's shard: when events are
// judged at Finish, the note joins that shard's log and lands between
// exactly the samples it did in the simulation.
func (a *Auditor) NoteDegradeStart(node int, dev string, t float64) {
	if !a.logNote(entryDegradeStart, node, dev, t) {
		a.degradeStart(node, dev, t)
	}
}

// NoteDegradeEnd records recovery at time t. The scheduler's local
// degraded regime ends immediately; the cluster-level bound stays
// relaxed for K = RecoveryPeriods coordination periods more, after
// which total-service proportionality must re-tighten.
func (a *Auditor) NoteDegradeEnd(node int, dev string, t float64) {
	if !a.logNote(entryDegradeEnd, node, dev, t) {
		a.degradeEnd(node, dev, t)
	}
}

// logNote appends a degradation note to the log of the shard the
// scheduler at (node, dev) was registered on, when events are judged
// at Finish. It reports whether the note was logged.
func (a *Auditor) logNote(kind uint8, node int, dev string, t float64) bool {
	if !a.deferred {
		return false
	}
	s := a.byKey[schedKey(node, dev)]
	if s == nil {
		return false
	}
	s.log.entries = append(s.log.entries, logEntry{time: t, kind: kind, node: node, dev: dev})
	return true
}

func (a *Auditor) degradeStart(node int, dev string, t float64) {
	a.count("degrade-noted")
	key := schedKey(node, dev)
	if s := a.byKey[key]; s != nil {
		s.degraded = append(s.degraded, span{from: t, to: math.Inf(1)})
		for _, f := range s.flows {
			f.lastStart = 0
		}
	}
	a.openSkips[key] = len(a.skips)
	a.skips = append(a.skips, span{from: t, to: math.Inf(1)})
}

func (a *Auditor) degradeEnd(node int, dev string, t float64) {
	a.count("recover-noted")
	key := schedKey(node, dev)
	if s := a.byKey[key]; s != nil {
		if n := len(s.degraded); n > 0 && math.IsInf(s.degraded[n-1].to, 1) {
			s.degraded[n-1].to = t
		}
	}
	if idx, ok := a.openSkips[key]; ok {
		grace := float64(a.opts.RecoveryPeriods) * a.opts.CoordinationPeriod
		a.skips[idx].to = t + grace
		delete(a.openSkips, key)
	}
}

// skipWindow reports whether [ws, we) overlaps any cluster-level
// relaxation interval.
func (a *Auditor) skipWindow(ws, we float64) bool {
	for _, sp := range a.skips {
		if sp.from < we && ws < sp.to {
			return true
		}
	}
	return false
}

// Attach audits cl. It registers the coordination plane — the
// federation root, if any, and every partition broker, live on the
// coordinator shard and at Finish on a shard of their own — and probes
// the schedulers of every every-th node (every ≤ 1: all of them)
// through cluster.Instrument. It also routes those schedulers'
// degrade and recovery notes and the share tree's transitions here as
// NoteDegradeStart/End and NoteEpochChange. Tenant checks still need
// SetShares. Attach before the simulation runs.
func (a *Auditor) Attach(cl *cluster.Cluster, every int) {
	if every < 1 {
		every = 1
	}
	coord := cl.CoordShard().ID()
	if root := cl.FederationRoot(); root != nil {
		a.attachAggregator(coord, root)
	}
	for i, p := range cl.Partitions() {
		if cl.PartitionShard(i) == coord {
			a.AttachBroker(coord, p.Broker())
		} else {
			a.attachBrokerDeferred(p.Broker())
		}
	}
	cl.Instrument(func(shard, node int, dev string, sched iosched.Scheduler) iosched.Probe {
		if node%every != 0 {
			return nil
		}
		return a.Probe(shard, node, dev, sched)
	})
	sampled := func(note func(int, string, float64)) func(int, string, float64) {
		return func(node int, dev string, t float64) {
			if node%every == 0 {
				note(node, dev, t)
			}
		}
	}
	cl.SetDegradeObserver(sampled(a.NoteDegradeStart), sampled(a.NoteDegradeEnd))
	cl.Shares().OnChange(func(tr shares.Transition) { a.NoteEpochChange(tr.Time) })
}

// AttachBroker audits service conservation on every exchange of b,
// live, from the shard whose engine runs b. Like a scheduler probe, it
// counts toward the shards the auditor is written from.
func (a *Auditor) AttachBroker(shard int, b *broker.Broker) {
	a.logFor(shard)
	a.brokers = append(a.brokers, b)
	b.SetProbe(func(string, *broker.Broker) { a.checkBroker(b) })
}

// attachBrokerDeferred audits b's conservation only at Finish. For
// partition brokers: their exchanges run on partition shards inside
// parallel fabric windows, where a live probe would mutate the auditor
// concurrently with the coordinator-shard probes.
func (a *Auditor) attachBrokerDeferred(b *broker.Broker) {
	a.brokers = append(a.brokers, b)
}

// attachAggregator audits the federation root on every applied uplink:
// the per-partition mirrors must sum to the global per-app quanta and
// their tenant regrouping must match the global tenant quanta — exact
// int64 equalities, no tolerance (invariant federation-conservation).
// shard is the shard whose engine runs ag, as for AttachBroker.
func (a *Auditor) attachAggregator(shard int, ag *broker.Aggregator) {
	a.logFor(shard)
	ag.SetProbe(func() {
		a.count("federation-conservation")
		if err := ag.CheckConservation(); err != nil {
			a.violate(Violation{
				Time: a.lastTime, Invariant: "federation-conservation", Node: -1,
				Detail: err.Error(),
			})
		}
	})
}

// Finish replays the shard logs (when probes sit on more than one
// shard), closes the open audit windows and re-checks broker
// conservation. Call it once the simulation has drained; it is safe to
// call more than once.
func (a *Auditor) Finish() {
	a.replay()
	for _, s := range a.scheds {
		s.roll(a.lastTime)
		s.closeWindow()
	}
	if a.cluster != nil {
		a.cluster.roll(a.lastTime)
		a.cluster.closeWindow()
	}
	for _, b := range a.brokers {
		a.checkBroker(b)
	}
}

// Violations returns the recorded breaches (up to MaxViolations).
func (a *Auditor) Violations() []Violation {
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// ViolationCount returns the total number of breaches observed,
// including ones dropped past the MaxViolations cap.
func (a *Auditor) ViolationCount() uint64 {
	return uint64(len(a.violations)) + a.dropped
}

// Checks returns per-invariant evaluation counts — how many times each
// property was actually tested.
func (a *Auditor) Checks() map[string]uint64 {
	out := make(map[string]uint64, len(a.checks))
	for k, v := range a.checks {
		out[k] = v
	}
	return out
}

// Err returns nil for a clean run, else an error summarizing the first
// violations.
func (a *Auditor) Err() error {
	if a.ViolationCount() == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d invariant violation(s)", a.ViolationCount())
	for i, v := range a.violations {
		if i >= 5 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (a *Auditor) count(inv string) { a.checks[inv]++ }

func (a *Auditor) violate(v Violation) {
	if len(a.violations) >= a.opts.MaxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, v)
}

// checkBroker verifies that the per-app sum of the latest local service
// vectors equals the broker's incrementally maintained totals.
func (a *Auditor) checkBroker(b *broker.Broker) {
	a.count("broker-conservation")
	sums := b.ReportedTotals()
	for _, app := range b.Apps() {
		total := b.Total(app)
		if diff := math.Abs(sums[app] - total); diff > 1e-6*math.Max(1, math.Abs(total)) {
			a.violate(Violation{
				Time: a.lastTime, Invariant: "broker-conservation", Node: -1, App: app,
				Detail: fmt.Sprintf("sum of reports %.6g != broker total %.6g (diff %.3g)", sums[app], total, diff),
			})
		}
	}
}

// shardLog is one shard's record of probe events awaiting replay:
// append-only, written only by that shard's engine.
type shardLog struct {
	shard   int
	entries []logEntry
}

const (
	entrySample = iota
	entryDegradeStart
	entryDegradeEnd
)

type logEntry struct {
	time  float64
	kind  uint8
	sched *schedState // sample entries
	smp   sample
	node  int // degrade entries
	dev   string
}

// replay merges the shard logs by (event time, shard, log order) and
// runs them through the invariant battery, then empties them.
func (a *Auditor) replay() {
	type tagged struct {
		time     float64
		log, idx int
	}
	var order []tagged
	for li, l := range a.logs {
		for i := range l.entries {
			order = append(order, tagged{l.entries[i].time, li, i})
		}
	}
	slices.SortFunc(order, func(x, y tagged) int {
		return cmp.Or(cmp.Compare(x.time, y.time), cmp.Compare(x.log, y.log), cmp.Compare(x.idx, y.idx))
	})
	for _, o := range order {
		e := &a.logs[o.log].entries[o.idx]
		switch e.kind {
		case entrySample:
			e.sched.observeSample(&e.smp)
		case entryDegradeStart:
			a.degradeStart(e.node, e.dev, e.time)
		case entryDegradeEnd:
			a.degradeEnd(e.node, e.dev, e.time)
		}
	}
	for _, l := range a.logs {
		l.entries = nil
	}
}

// flowAudit is one application's per-scheduler audit state.
type flowAudit struct {
	lastStart float64 // last start tag seen at arrival
	waiting   int     // arrived but not yet dispatched (queued)
	// Backlog tracking is time-weighted: zeroDur accumulates virtual
	// time the flow's queue spent empty this window. The SFQ fairness
	// bound applies to flows whose queue is continuously non-empty —
	// requests merely in flight are demand, not backlog — so the
	// share checks only compare flows that kept requests waiting.
	zeroSince float64 // when the queue last emptied (-1 while waiting > 0)
	zeroDur   float64 // empty-queue time accumulated this window
	// Window accumulators.
	service  float64
	requests int
	weight   float64
	maxUnit  float64 // running max cost/weight (the bound's c_f/w_f)
}

// schedState audits one scheduler.
// readSFQBacked is satisfied by schedulers that wrap an SFQ queue for
// reads while passing writes through uncontrolled (cgroups Weight).
type readSFQBacked interface {
	ReadSFQ() *iosched.SFQ
}

type schedState struct {
	a           *Auditor
	log         *shardLog // the shard log of the scheduler's shard
	node        int
	dev         string
	id          int
	sfq         bool
	readsOnly   bool // SFQ invariants apply to read-class requests only
	coordinated bool

	lastVTime   float64
	lastDepth   int
	windowStart float64
	maxDepth    int // max depth seen this window
	flows       map[iosched.AppID]*flowAudit
	// degraded intervals (NoteDegradeStart/End): while one is open the
	// scheduler runs pure local SFQ(D), so local proportional sharing
	// is checked even though the scheduler is nominally coordinated.
	degraded []span
}

// fullyDegraded reports whether [ws, we) lies inside one degraded
// interval — only then was every completion in the window produced
// under pure local fairness.
func (s *schedState) fullyDegraded(ws, we float64) bool {
	for _, sp := range s.degraded {
		if ws >= sp.from && we <= sp.to {
			return true
		}
	}
	return false
}

func (s *schedState) flow(app iosched.AppID) *flowAudit {
	f := s.flows[app]
	if f == nil {
		// A new flow counts as empty since the window opened.
		f = &flowAudit{zeroSince: s.windowStart}
		s.flows[app] = f
	}
	return f
}

// tagEps is the float-comparison slack for tag arithmetic.
func tagEps(x, y float64) float64 { return 1e-9 * (math.Abs(x) + math.Abs(y) + 1) }

// sample captures everything the invariant checks read from a request
// at probe time. Request objects are pooled and retagged after
// completion, so a logged event must copy the fields eagerly rather
// than hold the pointer.
type sample struct {
	app    iosched.AppID
	class  iosched.Class
	start  float64
	finish float64
	cost   float64
	weight float64
	st     iosched.ProbeState
}

func makeSample(req *iosched.Request, st iosched.ProbeState) sample {
	return sample{
		app:    req.App,
		class:  req.Class,
		start:  req.StartTag(),
		finish: req.FinishTag(),
		cost:   req.Cost(),
		weight: req.Weight(),
		st:     st,
	}
}

// Observe implements iosched.Probe.
func (s *schedState) Observe(req *iosched.Request, st iosched.ProbeState) {
	if s.a.deferred {
		s.log.entries = append(s.log.entries, logEntry{
			time: st.Time, kind: entrySample, sched: s, smp: makeSample(req, st),
		})
		return
	}
	smp := makeSample(req, st)
	s.observeSample(&smp)
}

// observeSample runs the full invariant battery on one captured
// lifecycle event, live (Observe) or from a shard log (Finish).
func (s *schedState) observeSample(smp *sample) {
	a := s.a
	st := smp.st
	if st.Time > a.lastTime {
		a.lastTime = st.Time
	}
	a.count("lifecycle")
	if st.Queued < 0 || st.InFlight < 0 {
		a.violate(Violation{Time: st.Time, Invariant: "lifecycle", Node: s.node, Dev: s.dev, App: smp.app,
			Detail: fmt.Sprintf("negative counters: queued=%d inflight=%d", st.Queued, st.InFlight)})
	}
	if st.Event == iosched.ProbeComplete && st.Latency < 0 {
		a.violate(Violation{Time: st.Time, Invariant: "lifecycle", Node: s.node, Dev: s.dev, App: smp.app,
			Detail: fmt.Sprintf("negative latency %g", st.Latency)})
	}

	s.roll(st.Time)
	if s.coordinated && a.cluster != nil {
		a.cluster.roll(st.Time)
	}
	if st.Depth > s.maxDepth {
		s.maxDepth = st.Depth
	}
	s.lastDepth = st.Depth
	if s.readsOnly && smp.class.OpKind() != storage.Read {
		// Uncontrolled write-back pass-through: lifecycle sanity only.
		return
	}

	f := s.flow(smp.app)
	switch st.Event {
	case iosched.ProbeArrive:
		if f.waiting == 0 && f.zeroSince >= 0 {
			if from := math.Max(f.zeroSince, s.windowStart); st.Time > from {
				f.zeroDur += st.Time - from
			}
			f.zeroSince = -1
		}
		f.waiting++
		if s.sfq {
			a.count("start-tag-monotonicity")
			if smp.start < f.lastStart-tagEps(smp.start, f.lastStart) {
				a.violate(Violation{Time: st.Time, Invariant: "start-tag-monotonicity", Node: s.node, Dev: s.dev, App: smp.app,
					Detail: fmt.Sprintf("start tag %.9g < previous %.9g", smp.start, f.lastStart)})
			}
			f.lastStart = smp.start
			a.count("tag-consistency")
			want := smp.start + smp.cost/smp.weight
			if math.Abs(smp.finish-want) > tagEps(smp.finish, want) {
				a.violate(Violation{Time: st.Time, Invariant: "tag-consistency", Node: s.node, Dev: s.dev, App: smp.app,
					Detail: fmt.Sprintf("finish tag %.9g != start %.9g + cost/w %.9g", smp.finish, smp.start, smp.cost/smp.weight)})
			}
			if smp.start < st.VTime-tagEps(smp.start, st.VTime) {
				a.violate(Violation{Time: st.Time, Invariant: "tag-consistency", Node: s.node, Dev: s.dev, App: smp.app,
					Detail: fmt.Sprintf("start tag %.9g below virtual time %.9g at arrival", smp.start, st.VTime)})
			}
		}
		if s.coordinated && a.cluster != nil {
			a.cluster.arrive(smp.app, s.id, st.Time)
		}
	case iosched.ProbeDispatch:
		f.waiting--
		if f.waiting <= 0 {
			f.waiting = 0
			f.zeroSince = st.Time
		}
		if s.coordinated && a.cluster != nil {
			a.cluster.dispatch(smp.app, s.id, st.Time)
		}
		if s.sfq {
			a.count("vtime-monotonicity")
			if st.VTime < s.lastVTime-tagEps(st.VTime, s.lastVTime) {
				a.violate(Violation{Time: st.Time, Invariant: "vtime-monotonicity", Node: s.node, Dev: s.dev, App: smp.app,
					Detail: fmt.Sprintf("virtual time %.9g < previous %.9g", st.VTime, s.lastVTime)})
			}
			s.lastVTime = st.VTime
			if st.Depth > 0 {
				a.count("depth-bound")
				if st.InFlight > st.Depth {
					a.violate(Violation{Time: st.Time, Invariant: "depth-bound", Node: s.node, Dev: s.dev, App: smp.app,
						Detail: fmt.Sprintf("dispatched with %d in flight > depth %d", st.InFlight, st.Depth)})
				}
			}
		}
	case iosched.ProbeComplete:
		if s.sfq && st.Depth > 0 {
			a.count("work-conservation")
			if st.Queued > 0 && st.InFlight < st.Depth {
				a.violate(Violation{Time: st.Time, Invariant: "work-conservation", Node: s.node, Dev: s.dev, App: smp.app,
					Detail: fmt.Sprintf("queue has %d waiting but only %d of %d slots in flight", st.Queued, st.InFlight, st.Depth)})
			}
		}
		f.service += smp.cost
		f.requests++
		f.weight = smp.weight
		if u := smp.cost / smp.weight; u > f.maxUnit {
			f.maxUnit = u
		}
		if s.coordinated && a.cluster != nil {
			a.cluster.complete(smp.app, smp.cost, smp.weight, s.id, st.Time)
		}
	}
}

// roll closes audit windows up to time t.
func (s *schedState) roll(t float64) {
	for w := s.a.opts.Window; t >= s.windowStart+w; s.windowStart += w {
		s.closeWindow()
	}
}

// closeWindow runs the per-window proportional-share check and resets
// the window accumulators. The local check applies to uncoordinated
// SFQ schedulers; under DSFQ coordination the delay rule intentionally
// skews local shares toward total-service fairness, so the cluster
// state checks the global analog instead.
func (s *schedState) closeWindow() {
	w := s.a.opts.Window
	end := s.windowStart + w
	// Accrue open empty-queue intervals up to the window end.
	for _, f := range s.flows {
		if f.zeroSince >= 0 {
			if from := math.Max(f.zeroSince, s.windowStart); end > from {
				f.zeroDur += end - from
			}
			f.zeroSince = end
		}
	}
	invariant := ""
	switch {
	case s.sfq && !s.coordinated:
		invariant = "proportional-share"
	case s.sfq && s.coordinated && s.fullyDegraded(s.windowStart, end):
		// Degradation's contract: with the delay rule suspended the
		// scheduler is a plain local SFQ(D), so the per-node bound
		// applies for windows spent fully degraded.
		invariant = "proportional-share-degraded"
	}
	if invariant != "" && s.a.epochSkipWindow(s.windowStart, end) {
		// A live reweight landed in (or near) this window: normalized
		// service mixes the old and new weights, so share comparisons
		// are suspended for the declared reconvergence interval.
		s.a.count("share-skipped-epoch")
		invariant = ""
	}
	if invariant != "" {
		maxZero := w * s.a.opts.BacklogSlack
		apps := make([]iosched.AppID, 0, len(s.flows))
		for app, f := range s.flows {
			if f.zeroDur <= maxZero && f.requests >= s.a.opts.MinWindowRequests && f.weight > 0 {
				apps = append(apps, app)
			}
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
		d := s.maxDepth
		if d < 1 {
			d = 1
		}
		for i := 0; i < len(apps); i++ {
			for j := i + 1; j < len(apps); j++ {
				fi, fj := s.flows[apps[i]], s.flows[apps[j]]
				s.a.count(invariant)
				ri, rj := fi.service/fi.weight, fj.service/fj.weight
				bound := float64(d+1) * (fi.maxUnit + fj.maxUnit) * (1 + s.a.opts.ShareSlack)
				if diff := math.Abs(ri - rj); diff > bound {
					s.a.violate(Violation{
						Time: s.windowStart + s.a.opts.Window, Invariant: invariant,
						Node: s.node, Dev: s.dev, App: apps[i],
						Detail: fmt.Sprintf("window [%.1fs,%.1fs): normalized service %s=%.4g vs %s=%.4g, |diff| %.4g > bound %.4g (D=%d)",
							s.windowStart, s.windowStart+s.a.opts.Window, apps[i], ri, apps[j], rj, math.Abs(ri-rj), bound, d),
					})
				}
			}
		}
		// Hierarchical check: a tenant's aggregate normalized service
		// (Σ service / Σ effective weight over qualifying members) is a
		// weighted average of its members' per-flow ratios, so any
		// tenant-pair difference is bounded by the worst member-pair
		// bound. Singleton-vs-singleton pairs duplicate the per-app
		// check above and are skipped.
		if s.a.shares != nil && len(apps) > 1 {
			names, aggs := tenantAggregates(apps, s.a.shares, func(app iosched.AppID) (float64, float64, float64) {
				f := s.flows[app]
				return f.service, f.weight, f.maxUnit
			})
			for i := 0; i < len(names); i++ {
				for j := i + 1; j < len(names); j++ {
					ti, tj := aggs[names[i]], aggs[names[j]]
					if ti.members < 2 && tj.members < 2 {
						continue
					}
					s.a.count("tenant-" + invariant)
					ri, rj := ti.service/ti.weight, tj.service/tj.weight
					bound := float64(d+1) * (ti.maxUnit + tj.maxUnit) * (1 + s.a.opts.ShareSlack)
					if diff := math.Abs(ri - rj); diff > bound {
						s.a.violate(Violation{
							Time: s.windowStart + s.a.opts.Window, Invariant: "tenant-" + invariant,
							Node: s.node, Dev: s.dev,
							Detail: fmt.Sprintf("window [%.1fs,%.1fs): tenant normalized service %s=%.4g vs %s=%.4g, |diff| %.4g > bound %.4g (D=%d)",
								s.windowStart, s.windowStart+s.a.opts.Window, names[i], ri, names[j], rj, diff, bound, d),
						})
					}
				}
			}
		}
	}
	for _, f := range s.flows {
		f.service = 0
		f.requests = 0
		f.zeroDur = 0
	}
	s.maxDepth = s.lastDepth
}

// tenantAgg aggregates the qualifying member flows of one tenant for
// the hierarchical share checks.
type tenantAgg struct {
	service float64
	weight  float64 // Σ member effective weights
	maxUnit float64 // max member cost/weight
	members int
}

// tenantAggregates groups qualifying apps (already sorted) by tenant,
// accumulating in app order so float rounding is deterministic. get
// returns one flow's (service, weight, maxUnit) window accumulators.
func tenantAggregates(apps []iosched.AppID, shares broker.ShareView, get func(iosched.AppID) (float64, float64, float64)) ([]string, map[string]*tenantAgg) {
	aggs := make(map[string]*tenantAgg)
	var names []string
	for _, app := range apps {
		tn := shares.TenantOf(app)
		ag := aggs[tn]
		if ag == nil {
			ag = &tenantAgg{}
			aggs[tn] = ag
			names = append(names, tn)
		}
		service, weight, maxUnit := get(app)
		ag.service += service
		ag.weight += weight
		ag.members++
		if maxUnit > ag.maxUnit {
			ag.maxUnit = maxUnit
		}
	}
	sort.Strings(names)
	return names, aggs
}

// clusterFlow is one application's cluster-wide audit state under
// coordination, tracked per scheduler id.
type clusterFlow struct {
	waiting   map[int]int     // scheduler id → queued (undispatched) requests
	zeroSince map[int]float64 // scheduler id → when queue emptied (-1 while busy)
	zeroDur   map[int]float64 // scheduler id → empty-queue time this window
	service   float64
	requests  int
	weight    float64
	maxUnit   float64
}

// touch ensures per-scheduler backlog state exists, treating a newly
// seen scheduler as empty since the window opened.
func (f *clusterFlow) touch(sched int, windowStart float64) {
	if _, ok := f.zeroSince[sched]; !ok {
		f.zeroSince[sched] = windowStart
	}
}

// clusterState audits total-service proportional sharing across all
// coordinated schedulers.
type clusterState struct {
	a           *Auditor
	members     int
	windowStart float64
	maxDepth    int
	flows       map[iosched.AppID]*clusterFlow
}

func (c *clusterState) flow(app iosched.AppID) *clusterFlow {
	f := c.flows[app]
	if f == nil {
		f = &clusterFlow{
			waiting:   make(map[int]int),
			zeroSince: make(map[int]float64),
			zeroDur:   make(map[int]float64),
		}
		c.flows[app] = f
	}
	return f
}

func (c *clusterState) arrive(app iosched.AppID, sched int, t float64) {
	f := c.flow(app)
	f.touch(sched, c.windowStart)
	if f.waiting[sched] == 0 && f.zeroSince[sched] >= 0 {
		if from := math.Max(f.zeroSince[sched], c.windowStart); t > from {
			f.zeroDur[sched] += t - from
		}
		f.zeroSince[sched] = -1
	}
	f.waiting[sched]++
}

func (c *clusterState) dispatch(app iosched.AppID, sched int, t float64) {
	f := c.flow(app)
	f.touch(sched, c.windowStart)
	f.waiting[sched]--
	if f.waiting[sched] <= 0 {
		f.waiting[sched] = 0
		f.zeroSince[sched] = t
	}
}

func (c *clusterState) complete(app iosched.AppID, cost, weight float64, sched int, t float64) {
	f := c.flow(app)
	f.service += cost
	f.requests++
	f.weight = weight
	if u := cost / weight; u > f.maxUnit {
		f.maxUnit = u
	}
	// Track the deepest dispatch bound any coordinated scheduler used.
	for _, s := range c.a.scheds {
		if s.coordinated && s.maxDepth > c.maxDepth {
			c.maxDepth = s.maxDepth
		}
	}
}

func (c *clusterState) roll(t float64) {
	for w := c.a.opts.Window; t >= c.windowStart+w; c.windowStart += w {
		c.closeWindow()
	}
}

// backloggedSet returns the scheduler ids a flow kept a non-empty
// queue on for (nearly) the whole window.
func (f *clusterFlow) backloggedSet(maxZero float64) map[int]bool {
	set := make(map[int]bool, len(f.zeroSince))
	for id := range f.zeroSince {
		if f.zeroDur[id] <= maxZero {
			set[id] = true
		}
	}
	return set
}

// closeWindow compares total normalized service between flows that
// share at least one continuously backlogged scheduler — the DSFQ
// regime: the delay rule at a shared scheduler compensates each flow
// for service received elsewhere, making *total* service proportional.
// The bound carries one (D+1)(c/w) term per coordinated scheduler plus
// a staleness term for service accrued during the coordination period
// but not yet reflected in the delay functions.
func (c *clusterState) closeWindow() {
	w := c.a.opts.Window
	end := c.windowStart + w
	// Accrue open empty-queue intervals up to the window end.
	for _, f := range c.flows {
		for id, since := range f.zeroSince {
			if since < 0 {
				continue
			}
			if from := math.Max(since, c.windowStart); end > from {
				f.zeroDur[id] += end - from
			}
			f.zeroSince[id] = end
		}
	}
	maxZero := w * c.a.opts.BacklogSlack
	apps := make([]iosched.AppID, 0, len(c.flows))
	sets := make(map[iosched.AppID]map[int]bool, len(c.flows))
	for app, f := range c.flows {
		if f.requests < c.a.opts.MinWindowRequests || f.weight <= 0 {
			continue
		}
		set := f.backloggedSet(maxZero)
		if len(set) == 0 {
			continue
		}
		apps = append(apps, app)
		sets[app] = set
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	d := c.maxDepth
	if d < 1 {
		d = 1
	}
	// While any member is degraded — and for K recovery periods after —
	// the delay functions are allowed to be stale, so the cluster-wide
	// bound is suspended (it relaxes to the per-node bounds the
	// degraded schedulers are checked against). Past the grace the
	// window is checked again: reconvergence must actually happen.
	skipped := c.a.skipWindow(c.windowStart, end)
	if skipped && len(apps) > 0 {
		c.a.count("total-proportional-share-skipped")
	}
	if !skipped && c.a.epochSkipWindow(c.windowStart, end) {
		// Reweight reconvergence: the delay functions are converging
		// toward the new targets for a bounded number of coordination
		// periods; past the grace the bound re-tightens.
		skipped = true
		if len(apps) > 0 {
			c.a.count("share-skipped-epoch")
		}
	}
	// Staleness allowance: up to one coordination period of each flow's
	// cluster-wide service rate may be unreported on both the rising
	// and falling edge of the window — plus, under a federated plane,
	// the hierarchy's aggregation lag (FederationStaleness), which also
	// renames the invariant to the share-federated regime.
	lag := c.a.opts.CoordinationPeriod + c.a.opts.FederationStaleness
	totalInv := "total-proportional-share"
	if c.a.opts.FederationStaleness > 0 {
		totalInv = "share-federated"
	}
	for i := 0; i < len(apps) && !skipped; i++ {
		for j := i + 1; j < len(apps); j++ {
			if !intersects(sets[apps[i]], sets[apps[j]]) {
				continue
			}
			fi, fj := c.flows[apps[i]], c.flows[apps[j]]
			c.a.count(totalInv)
			ri, rj := fi.service/fi.weight, fj.service/fj.weight
			stale := 2 * lag * (ri + rj) / w
			bound := float64(d+1)*(fi.maxUnit+fj.maxUnit)*float64(c.members+1)*(1+c.a.opts.ShareSlack) + stale
			if diff := math.Abs(ri - rj); diff > bound {
				c.a.violate(Violation{
					Time: end, Invariant: totalInv,
					Node: -1, App: apps[i],
					Detail: fmt.Sprintf("window [%.1fs,%.1fs): total normalized service %s=%.4g vs %s=%.4g, |diff| %.4g > bound %.4g (D=%d)",
						c.windowStart, end, apps[i], ri, apps[j], rj, diff, bound, d),
				})
			}
		}
	}
	// Hierarchical cluster-wide check, by the same weighted-average
	// argument as the local one: tenant aggregate ratios are bounded by
	// the worst member-pair bound. Tenant pairs qualify when their
	// members' backlogged-scheduler sets intersect and at least one
	// tenant has two or more qualifying members (singleton pairs
	// duplicate the per-app check).
	if !skipped && c.a.shares != nil && len(apps) > 1 {
		names, aggs := tenantAggregates(apps, c.a.shares, func(app iosched.AppID) (float64, float64, float64) {
			f := c.flows[app]
			return f.service, f.weight, f.maxUnit
		})
		union := make(map[string]map[int]bool, len(names))
		for _, app := range apps {
			tn := c.a.shares.TenantOf(app)
			if union[tn] == nil {
				union[tn] = make(map[int]bool)
			}
			for id := range sets[app] {
				union[tn][id] = true
			}
		}
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				ti, tj := aggs[names[i]], aggs[names[j]]
				if ti.members < 2 && tj.members < 2 {
					continue
				}
				if !intersects(union[names[i]], union[names[j]]) {
					continue
				}
				c.a.count("total-tenant-proportional-share")
				ri, rj := ti.service/ti.weight, tj.service/tj.weight
				stale := 2 * lag * (ri + rj) / w
				bound := float64(d+1)*(ti.maxUnit+tj.maxUnit)*float64(c.members+1)*(1+c.a.opts.ShareSlack) + stale
				if diff := math.Abs(ri - rj); diff > bound {
					c.a.violate(Violation{
						Time: end, Invariant: "total-tenant-proportional-share",
						Node: -1,
						Detail: fmt.Sprintf("window [%.1fs,%.1fs): tenant normalized service %s=%.4g vs %s=%.4g, |diff| %.4g > bound %.4g (D=%d)",
							c.windowStart, end, names[i], ri, names[j], rj, diff, bound, d),
					})
				}
			}
		}
	}
	for _, f := range c.flows {
		f.service = 0
		f.requests = 0
		for id := range f.zeroDur {
			f.zeroDur[id] = 0
		}
	}
}

// intersects reports whether two scheduler sets share an element.
func intersects(a, b map[int]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}
