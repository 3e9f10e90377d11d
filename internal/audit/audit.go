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
//     hierarchical analogs, once CheckTenants turns them on:
//     each tenant's aggregate normalized service (total service over
//     the summed effective weights of its qualifying members) is a
//     weighted average of its members' per-flow ratios, so any
//     tenant-pair difference is bounded by the worst member-pair
//     bound — checked per window, locally and cluster-wide;
//   - broker-conservation: the sum of the schedulers' reported local
//     service vectors equals the broker's global totals, and its
//     tenant rollup equals their regroup, checked at every exchange.
//
// Live reweights (share-tree epoch changes) open a bounded
// reconvergence window: share checks are suspended for windows
// overlapping [t, t + K × CoordinationPeriod] (K = 5) after a
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
// Every scheduler event, and every degrade/recover note, is written as
// the tracer's record into the scheduler's shard log (trace.Log), and
// the auditor judges only records. When every probe sits on one shard
// each event is judged at once, as the record it would be logged as
// (trace.Writer.Fill), and each note as it is written. Otherwise one
// record could touch state that parallel windows mutate concurrently,
// so records wait in the logs until no shard is running — each fabric
// barrier (Attach), or Finish for an auditor wired by hand — and are
// judged there in the tracer's merge order (event time, shard, log
// order).
// Every record of a fabric window precedes every later record in that
// order, so judging window by window gives the order of one merge at
// the end: every check count and violation is a pure function of the
// simulated system, independent of worker count, and the logs hold at
// most one window of records.
//
// Audit windows. One clock cuts the run into 5 s windows for
// every check: the first judged record at or past a window's end
// closes it everywhere at once — each scheduler's local share checks,
// in registration order, then the cluster-wide check.
package audit

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"ibis/internal/broker"
	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// Options tune the auditor.
type Options struct {
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
}

const (
	// window is the proportional-share audit period in virtual seconds.
	window = 5.0
	// minWindowRequests is the minimum completions a flow needs inside
	// a window before it participates in share checks.
	minWindowRequests = 4
	// recoveryPeriods is K: how many coordination periods after a
	// degraded scheduler recovers (or a live reweight) the
	// cluster-level share bound is still relaxed before it must
	// re-tighten.
	recoveryPeriods = 5
	// maxViolations caps stored violations; excess ones are counted
	// but dropped.
	maxViolations = 256
	// shareSlack is the relative slack multiplied onto the theoretical
	// fairness bound to absorb device-model noise and window-boundary
	// effects (bound × 1.5).
	shareSlack = 0.5
	// backlogSlack is the fraction of a window a flow's queue may be
	// empty while still counting as continuously backlogged for the
	// share checks. The fairness bound only applies to backlogged
	// flows; a small tolerance keeps closed-loop workloads with
	// instantaneous resubmission gaps eligible.
	backlogSlack = 0.02
)

func (o *Options) defaults() {
	if o.CoordinationPeriod <= 0 {
		o.CoordinationPeriod = 1
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
	byNode     [][trace.DevNIC + 1]*schedState // scheduler index by (node, device)
	cluster    *clusterState
	brokers    []*broker.Broker
	violations []Violation
	dropped    uint64
	checks     [numInvariants]uint64
	lastTime   float64
	// windowStart opens the current audit window [windowStart,
	// windowStart+window), one clock for every scheduler and the
	// cluster: the first judged record at or past its end closes it
	// everywhere at once (closeWindow).
	windowStart float64
	// window, minRequests and recovery hold the window, minWindowRequests
	// and recoveryPeriods; only this package's tests shorten them.
	window      float64
	minRequests int
	recovery    int

	// Degradation bookkeeping (see NoteDegradeStart): skips are the
	// cluster-level relaxation intervals — each degraded stretch plus
	// K recovery periods of grace — and openSkips tracks the interval
	// each currently-degraded scheduler opened.
	skips     []span
	openSkips map[schedRef]int

	// Epoch bookkeeping (see NoteEpochChange): reconvergence intervals
	// around live weight changes, during which share checks (but not
	// tag checks) are suspended.
	epochSkips []span
	// tenants turns the hierarchical checks on.
	tenants bool
	// names numbers the audited requests' apps, names them when the
	// log is drained, and groups them by tenant for the hierarchical
	// checks.
	names *shares.Tree

	// log holds the records of every shard with a scheduler probe.
	// shards holds the shards whose engines write the auditor; with more
	// than one, records are judged at the next drain: a fabric barrier
	// once attached, else Finish.
	log    trace.Log
	shards map[int]bool
	// aggs is the local share check's flow list, reused from one
	// window to the next.
	aggs []shareAgg
}

// schedRef names a scheduler by node and device.
type schedRef struct {
	node int32
	dev  trace.DeviceKind
}

// CheckTenants turns on the hierarchical proportional-share
// invariants, which group flows into tenants by the tree the auditor
// numbers apps with.
func (a *Auditor) CheckTenants() { a.tenants = true }

// NoteEpochChange records a live weight change at virtual time t: all
// share checks are suspended for windows overlapping the reconvergence
// interval [t, t + K × CoordinationPeriod]. Wire it to
// shares.Tree.OnChange. Windows past the interval are checked again —
// the system must actually reconverge to the new targets.
func (a *Auditor) NoteEpochChange(t float64) {
	a.count(invEpochNoted)
	grace := float64(a.recovery) * a.opts.CoordinationPeriod
	a.epochSkips = append(a.epochSkips, span{from: t, to: t + grace})
}

// span is a virtual-time interval; to is +Inf while still open.
type span struct{ from, to float64 }

// overlaps reports whether [ws, we) overlaps any of spans.
func overlaps(spans []span, ws, we float64) bool {
	for _, sp := range spans {
		if sp.from < we && ws < sp.to {
			return true
		}
	}
	return false
}

// New creates an auditor of requests whose apps names numbers (a
// cluster's Shares()). Holding names turns no tenant check on; that
// takes CheckTenants.
func New(opts Options, names *shares.Tree) *Auditor {
	opts.defaults()
	return &Auditor{
		opts:        opts,
		window:      window,
		minRequests: minWindowRequests,
		recovery:    recoveryPeriods,
		names:       names,
		openSkips:   make(map[schedRef]int),
		shards:      make(map[int]bool),
	}
}

// Probe returns the lifecycle probe auditing one scheduler, labeled
// with its node index and device; shard is the simulation shard whose
// engine drives the scheduler. SFQ schedulers get the full invariant
// set; other policies get lifecycle sanity checks only. Register every
// probe before the simulation runs.
func (a *Auditor) Probe(shard, node int, dev trace.DeviceKind, sched iosched.Scheduler) iosched.Probe {
	a.shards[shard] = true
	s := &schedState{
		a:    a,
		w:    a.log.Writer(shard, node, dev),
		node: node,
		dev:  dev,
		id:   len(a.scheds),
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
			a.cluster = &clusterState{a: a}
		}
		a.cluster.members++
	}
	a.scheds = append(a.scheds, s)
	for len(a.byNode) <= node {
		a.byNode = append(a.byNode, [trace.DevNIC + 1]*schedState{})
	}
	a.byNode[node][dev] = s
	return s
}

// sched returns the scheduler registered at (node, dev), or nil.
func (a *Auditor) sched(node int32, dev trace.DeviceKind) *schedState {
	if node < 0 || int(node) >= len(a.byNode) {
		return nil
	}
	return a.byNode[node][dev]
}

// judgeLive judges the logged records now when every writer sits on
// one shard; otherwise they wait for the next drain.
func (a *Auditor) judgeLive() {
	if len(a.shards) <= 1 {
		a.drain()
	}
}

// drain judges every logged record in the tracer's merge order and
// empties the logs. Call it only when no shard is writing: at a fabric
// barrier (Attach wires it there) or at Finish.
func (a *Auditor) drain() { a.log.Drain(a.names, a.judge) }

// judge runs one record through the invariant battery: a note switches
// its scheduler's regime, a lifecycle event is checked. app is the
// record's app index (meaningless for a note).
func (a *Auditor) judge(r *trace.Record, app iosched.AppIdx) {
	s := a.sched(r.Node, r.Dev)
	switch r.Event {
	case trace.EventDegrade:
		a.degradeStart(s, r)
	case trace.EventRecover:
		a.degradeEnd(s, r)
	default:
		s.observe(r, app)
	}
}

// NoteDegradeStart records that the scheduler at (node, dev) suspended
// DSFQ coordination at time t. The auditor switches invariant regimes
// for it: the cluster-wide total-share bound stops applying (the
// degraded member no longer tracks remote service), the *local*
// proportional-share bound starts applying to it (the guarantee
// degradation preserves), and per-flow start-tag monotonicity is reset
// once — suspension clamps accumulated delay-rule debt down to the
// scheduler's virtual time, which legitimately regresses tags at that
// single instant. Call it from the scheduler's shard: the note joins
// that shard's log and lands between exactly the records it did in the
// simulation.
func (a *Auditor) NoteDegradeStart(node int, dev string, t float64) {
	a.note(trace.EventDegrade, node, dev, t)
}

// NoteDegradeEnd records recovery at time t. The scheduler's local
// degraded regime ends immediately; the cluster-level bound stays
// relaxed for K = recoveryPeriods coordination periods more, after
// which total-service proportionality must re-tighten.
func (a *Auditor) NoteDegradeEnd(node int, dev string, t float64) {
	a.note(trace.EventRecover, node, dev, t)
}

// note writes a degrade or recover note into the log of the scheduler
// at (node, dev). A note for a scheduler with no probe is judged on the
// spot.
func (a *Auditor) note(ev iosched.ProbeEvent, node int, dev string, t float64) {
	kind := trace.DeviceKindOf(dev)
	if s := a.sched(int32(node), kind); s != nil {
		s.w.Note(ev, t)
		a.judgeLive()
		return
	}
	a.judge(&trace.Record{Time: t, Node: int32(node), Dev: kind, Event: ev}, 0)
}

// degradeStart applies a degrade note; s is its scheduler, or nil.
func (a *Auditor) degradeStart(s *schedState, r *trace.Record) {
	a.count(invDegradeNoted)
	if s != nil {
		s.degraded = append(s.degraded, span{from: r.Time, to: math.Inf(1)})
		for _, f := range s.flows {
			if f != nil {
				f.lastStart = 0
			}
		}
	}
	a.openSkips[schedRef{r.Node, r.Dev}] = len(a.skips)
	a.skips = append(a.skips, span{from: r.Time, to: math.Inf(1)})
}

// degradeEnd applies a recover note; s is its scheduler, or nil.
func (a *Auditor) degradeEnd(s *schedState, r *trace.Record) {
	a.count(invRecoverNoted)
	if s != nil {
		if n := len(s.degraded); n > 0 && math.IsInf(s.degraded[n-1].to, 1) {
			s.degraded[n-1].to = r.Time
		}
	}
	key := schedRef{r.Node, r.Dev}
	if idx, ok := a.openSkips[key]; ok {
		grace := float64(a.recovery) * a.opts.CoordinationPeriod
		a.skips[idx].to = r.Time + grace
		delete(a.openSkips, key)
	}
}

// skipWindow reports whether [ws, we) overlaps any cluster-level
// relaxation interval.
func (a *Auditor) skipWindow(ws, we float64) bool { return overlaps(a.skips, ws, we) }

// Attach audits cl. It registers the coordination plane — the
// federation root, if any, and every partition broker, live on the
// coordinator shard and at Finish on a shard of their own — and probes
// the schedulers of every every-th node (every ≤ 1: all of them)
// through cluster.Instrument. It also routes those schedulers'
// degrade and recovery notes and the share tree's transitions here as
// NoteDegradeStart/End and NoteEpochChange, and judges the logged
// records at every fabric barrier. Tenant checks still need
// CheckTenants.
// Attach before the simulation runs.
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
			// Checked at Finish only: its exchanges run on a partition
			// shard inside parallel fabric windows, where a live probe
			// would write the auditor concurrently with the coordinator.
			a.brokers = append(a.brokers, p.Broker())
		}
	}
	cl.Instrument(func(shard, node int, dev string, sched iosched.Scheduler) iosched.Probe {
		if node%every != 0 {
			return nil
		}
		return a.Probe(shard, node, trace.DeviceKindOf(dev), sched)
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
	cl.OnBarrier(a.drain)
}

// AttachBroker audits service conservation on every exchange of b,
// live, from the shard whose engine runs b. Like a scheduler probe, it
// counts toward the shards the auditor is written from.
func (a *Auditor) AttachBroker(shard int, b *broker.Broker) {
	a.shards[shard] = true
	a.brokers = append(a.brokers, b)
	b.SetProbe(func(string, *broker.Broker) { a.checkBroker(b) })
}

// attachAggregator audits the federation root on every applied uplink:
// the per-partition mirrors must sum to the global per-app quanta and
// their tenant regrouping must match the global tenant quanta — exact
// int64 equalities, no tolerance (invariant federation-conservation).
// shard is the shard whose engine runs ag, as for AttachBroker.
func (a *Auditor) attachAggregator(shard int, ag *broker.Aggregator) {
	a.shards[shard] = true
	ag.SetProbe(func() {
		a.count(invFederationConservation)
		if err := ag.CheckConservation(); err != nil {
			a.violate(Violation{
				Time: a.lastTime, Invariant: invFederationConservation.String(), Node: -1,
				Detail: err.Error(),
			})
		}
	})
}

// Finish judges the records still logged (when probes sit on more
// than one shard: all of them for an auditor not attached to a fabric,
// none after a fabric's last barrier), closes the open audit window
// and re-checks broker conservation. Call it once the simulation is
// over, not between slices of a run: a window it closes early is
// checked again when the run resumes. A repeated call at the end is
// harmless.
func (a *Auditor) Finish() {
	a.drain()
	a.roll(a.lastTime)
	a.closeWindow()
	for _, b := range a.brokers {
		a.checkBroker(b)
	}
}

// Violations returns the recorded breaches (up to the first 256).
func (a *Auditor) Violations() []Violation { return slices.Clone(a.violations) }

// ViolationCount returns the total number of breaches observed,
// including ones dropped past that cap.
func (a *Auditor) ViolationCount() uint64 {
	return uint64(len(a.violations)) + a.dropped
}

// Checks returns per-invariant evaluation counts — how many times each
// property was actually tested.
func (a *Auditor) Checks() map[string]uint64 {
	out := make(map[string]uint64)
	for inv, n := range a.checks {
		if n > 0 {
			out[invariantNames[inv]] = n
		}
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

func (a *Auditor) count(inv invariant) { a.checks[inv]++ }

// invariant names one audited property or note; the tallies are a
// fixed array indexed by it, and Checks reports them by name.
type invariant uint8

const (
	invEpochNoted invariant = iota
	invDegradeNoted
	invRecoverNoted
	invFederationConservation
	invBrokerConservation
	invLifecycle
	invStartTagMonotonicity
	invTagConsistency
	invVtimeMonotonicity
	invDepthBound
	invWorkConservation
	invShareSkippedEpoch
	invProportionalShare
	invProportionalShareDegraded
	invTenantProportionalShare
	invTenantProportionalShareDegraded
	invTotalProportionalShare
	invShareFederated
	invTotalTenantProportionalShare
	invTotalProportionalShareSkipped
	numInvariants
)

var invariantNames = [numInvariants]string{
	invEpochNoted:                      "epoch-noted",
	invDegradeNoted:                    "degrade-noted",
	invRecoverNoted:                    "recover-noted",
	invFederationConservation:          "federation-conservation",
	invBrokerConservation:              "broker-conservation",
	invLifecycle:                       "lifecycle",
	invStartTagMonotonicity:            "start-tag-monotonicity",
	invTagConsistency:                  "tag-consistency",
	invVtimeMonotonicity:               "vtime-monotonicity",
	invDepthBound:                      "depth-bound",
	invWorkConservation:                "work-conservation",
	invShareSkippedEpoch:               "share-skipped-epoch",
	invProportionalShare:               "proportional-share",
	invProportionalShareDegraded:       "proportional-share-degraded",
	invTenantProportionalShare:         "tenant-proportional-share",
	invTenantProportionalShareDegraded: "tenant-proportional-share-degraded",
	invTotalProportionalShare:          "total-proportional-share",
	invShareFederated:                  "share-federated",
	invTotalTenantProportionalShare:    "total-tenant-proportional-share",
	invTotalProportionalShareSkipped:   "total-proportional-share-skipped",
}

func (i invariant) String() string { return invariantNames[i] }

func (a *Auditor) violate(v Violation) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, v)
}

// checkBroker verifies that the per-app sum of the latest local service
// vectors equals the broker's incrementally maintained totals, and that
// its tenant rollup equals the regroup of those totals.
func (a *Auditor) checkBroker(b *broker.Broker) {
	a.count(invBrokerConservation)
	if err := b.CheckConservation(); err != nil {
		a.violate(Violation{Time: a.lastTime, Invariant: invBrokerConservation.String(), Node: -1, Detail: err.Error()})
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
	flowWindow
}

// flowWindow accumulates one flow's completions, on one scheduler or
// cluster-wide, for the share checks.
type flowWindow struct {
	app      iosched.AppID
	service  float64 // this window
	requests int     // this window
	weight   float64 // of the latest completion
	maxUnit  float64 // running max cost/weight (the bound's c_f/w_f)
}

// add books one completion.
func (f *flowWindow) add(cost, weight float64) {
	f.service += cost
	f.requests++
	f.weight = weight
	if u := cost / weight; u > f.maxUnit {
		f.maxUnit = u
	}
}

// qualifies reports whether f completed enough requests this window,
// at a known weight, to take part in share checks.
func (a *Auditor) qualifies(f *flowWindow) bool {
	return f.requests >= a.minRequests && f.weight > 0
}

// readSFQBacked is satisfied by schedulers that wrap an SFQ queue for
// reads while passing writes through uncontrolled (cgroups Weight).
type readSFQBacked interface {
	ReadSFQ() *iosched.SFQ
}

// schedState audits one scheduler.
type schedState struct {
	a           *Auditor
	w           trace.Writer // into the log of the scheduler's shard
	node        int
	dev         trace.DeviceKind
	id          int
	sfq         bool
	readsOnly   bool // SFQ invariants apply to read-class requests only
	coordinated bool

	lastVTime float64
	lastDepth int
	maxDepth  int // max depth seen this window
	// flows is indexed by app index (nil = no record yet).
	flows []*flowAudit
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

func (s *schedState) flow(app iosched.AppIdx, name iosched.AppID) *flowAudit {
	if int(app) >= len(s.flows) {
		s.flows = append(s.flows, make([]*flowAudit, int(app)+1-len(s.flows))...)
	}
	f := s.flows[app]
	if f == nil {
		// A new flow counts as empty since the window opened.
		f = &flowAudit{zeroSince: s.a.windowStart, flowWindow: flowWindow{app: name}}
		s.flows[app] = f
	}
	return f
}

// at returns xs[i], or nil past the end.
func at[T any](xs []*T, i int) *T {
	if i < len(xs) {
		return xs[i]
	}
	return nil
}

// tagEps is the float-comparison slack for tag arithmetic.
func tagEps(x, y float64) float64 { return 1e-9 * (math.Abs(x) + math.Abs(y) + 1) }

// Observe implements iosched.Probe: the event is written to the log,
// and judged there; when every writer sits on one shard it is judged at
// once, as the record it would be logged as.
func (s *schedState) Observe(req *iosched.Request, st iosched.ProbeState) {
	if len(s.a.shards) <= 1 {
		var r trace.Record
		s.w.Fill(req, st, s.a.names, &r)
		s.a.judge(&r, req.AppIdx)
		return
	}
	s.w.Observe(req, st)
}

// observe runs the full invariant battery on one lifecycle record of
// app.
func (s *schedState) observe(r *trace.Record, app iosched.AppIdx) {
	a := s.a
	if r.Time > a.lastTime {
		a.lastTime = r.Time
	}
	a.count(invLifecycle)
	if r.Queued < 0 || r.InFlight < 0 {
		a.violate(Violation{Time: r.Time, Invariant: invLifecycle.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
			Detail: fmt.Sprintf("negative counters: queued=%d inflight=%d", r.Queued, r.InFlight)})
	}
	if r.Event == iosched.ProbeComplete && r.Latency < 0 {
		a.violate(Violation{Time: r.Time, Invariant: invLifecycle.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
			Detail: fmt.Sprintf("negative latency %g", r.Latency)})
	}

	a.roll(r.Time)
	s.lastDepth = int(r.Depth)
	s.maxDepth = max(s.maxDepth, s.lastDepth)
	if s.coordinated {
		a.cluster.maxDepth = max(a.cluster.maxDepth, s.lastDepth)
	}
	if s.readsOnly && r.Class.OpKind() != storage.Read {
		// Uncontrolled write-back pass-through: lifecycle sanity only.
		return
	}

	f := s.flow(app, r.App)
	switch r.Event {
	case iosched.ProbeArrive:
		if f.waiting == 0 && f.zeroSince >= 0 {
			if from := math.Max(f.zeroSince, a.windowStart); r.Time > from {
				f.zeroDur += r.Time - from
			}
			f.zeroSince = -1
		}
		f.waiting++
		if s.sfq {
			a.count(invStartTagMonotonicity)
			if r.StartTag < f.lastStart-tagEps(r.StartTag, f.lastStart) {
				a.violate(Violation{Time: r.Time, Invariant: invStartTagMonotonicity.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
					Detail: fmt.Sprintf("start tag %.9g < previous %.9g", r.StartTag, f.lastStart)})
			}
			f.lastStart = r.StartTag
			a.count(invTagConsistency)
			want := r.StartTag + r.Cost/r.Weight
			if math.Abs(r.FinishTag-want) > tagEps(r.FinishTag, want) {
				a.violate(Violation{Time: r.Time, Invariant: invTagConsistency.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
					Detail: fmt.Sprintf("finish tag %.9g != start %.9g + cost/w %.9g", r.FinishTag, r.StartTag, r.Cost/r.Weight)})
			}
			if r.StartTag < r.VTime-tagEps(r.StartTag, r.VTime) {
				a.violate(Violation{Time: r.Time, Invariant: invTagConsistency.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
					Detail: fmt.Sprintf("start tag %.9g below virtual time %.9g at arrival", r.StartTag, r.VTime)})
			}
		}
	case iosched.ProbeDispatch:
		f.waiting--
		if f.waiting <= 0 {
			f.waiting = 0
			f.zeroSince = r.Time
		}
		if s.sfq {
			a.count(invVtimeMonotonicity)
			if r.VTime < s.lastVTime-tagEps(r.VTime, s.lastVTime) {
				a.violate(Violation{Time: r.Time, Invariant: invVtimeMonotonicity.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
					Detail: fmt.Sprintf("virtual time %.9g < previous %.9g", r.VTime, s.lastVTime)})
			}
			s.lastVTime = r.VTime
			if r.Depth > 0 {
				a.count(invDepthBound)
				if r.InFlight > r.Depth {
					a.violate(Violation{Time: r.Time, Invariant: invDepthBound.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
						Detail: fmt.Sprintf("dispatched with %d in flight > depth %d", r.InFlight, r.Depth)})
				}
			}
		}
	case iosched.ProbeComplete:
		if s.sfq && r.Depth > 0 {
			a.count(invWorkConservation)
			if r.Queued > 0 && r.InFlight < r.Depth {
				a.violate(Violation{Time: r.Time, Invariant: invWorkConservation.String(), Node: s.node, Dev: s.dev.String(), App: r.App,
					Detail: fmt.Sprintf("queue has %d waiting but only %d of %d slots in flight", r.Queued, r.InFlight, r.Depth)})
			}
		}
		f.add(r.Cost, r.Weight)
		if s.coordinated {
			a.cluster.complete(app, r.App, r.Cost, r.Weight)
		}
	}
}

// roll closes the audit windows that end at or before time t.
func (a *Auditor) roll(t float64) {
	for w := a.window; t >= a.windowStart+w; a.windowStart += w {
		a.closeWindow()
	}
}

// closeWindow closes the open audit window everywhere at once, in a
// fixed order: each scheduler accrues its open empty-queue time up to
// the window end and runs its local share checks, then the cluster
// check reads the coordinated schedulers' backlog (resetting its own
// totals as it reads them), then the schedulers' accumulators reset.
func (a *Auditor) closeWindow() {
	start, end := a.windowStart, a.windowStart+a.window
	for _, s := range a.scheds {
		s.checkWindow(start, end)
	}
	if a.cluster != nil {
		a.cluster.checkWindow(start, end)
	}
	for _, s := range a.scheds {
		for _, f := range s.flows {
			if f != nil {
				f.service, f.requests, f.zeroDur = 0, 0, 0
			}
		}
		s.maxDepth = s.lastDepth
	}
}

// checkWindow accrues the open empty-queue intervals up to the window
// end and runs the window's local proportional-share check. The check
// applies to uncoordinated SFQ schedulers; under DSFQ coordination the
// delay rule intentionally skews local shares toward total-service
// fairness, so the cluster state checks the global analog instead.
func (s *schedState) checkWindow(start, end float64) {
	w := s.a.window
	for _, f := range s.flows {
		if f != nil && f.zeroSince >= 0 {
			if from := math.Max(f.zeroSince, start); end > from {
				f.zeroDur += end - from
			}
			f.zeroSince = end
		}
	}
	checked, inv, tenantInv := false, invProportionalShare, invTenantProportionalShare
	switch {
	case s.sfq && !s.coordinated:
		checked = true
	case s.sfq && s.coordinated && s.fullyDegraded(start, end):
		// Degradation's contract: with the delay rule suspended the
		// scheduler is a plain local SFQ(D), so the per-node bound
		// applies for windows spent fully degraded.
		checked, inv, tenantInv = true, invProportionalShareDegraded, invTenantProportionalShareDegraded
	}
	if checked && overlaps(s.a.epochSkips, start, end) {
		// A live reweight landed in (or near) this window: normalized
		// service mixes the old and new weights, so share comparisons
		// are suspended for the declared reconvergence interval.
		s.a.count(invShareSkippedEpoch)
		checked = false
	}
	if checked {
		maxZero := w * backlogSlack
		flows := s.a.aggs[:0]
		for app, f := range s.flows {
			if f != nil && f.zeroDur <= maxZero && s.a.qualifies(&f.flowWindow) {
				flows = append(flows, shareAgg{name: string(f.app), app: f.app, idx: iosched.AppIdx(app), service: f.service, weight: f.weight, maxUnit: f.maxUnit, members: 1})
			}
		}
		s.a.aggs = flows
		sortAggs(flows)
		win := shareWindow{a: s.a, node: s.node, dev: s.dev.String(), start: start, end: end, d: max(s.maxDepth, 1)}
		bound := func(x, y *shareAgg, _, _ float64) float64 {
			return float64(win.d+1) * (x.maxUnit + y.maxUnit) * (1 + shareSlack)
		}
		win.check(inv, "normalized service", flows, nil, bound)
		// Hierarchical check: a tenant's aggregate normalized service
		// (Σ service / Σ effective weight over qualifying members) is a
		// weighted average of its members' per-flow ratios, so any
		// tenant-pair difference is bounded by the worst member-pair
		// bound. Singleton-vs-singleton pairs duplicate the per-app
		// check above and are skipped.
		if s.a.tenants && len(flows) > 1 {
			win.check(tenantInv, "tenant normalized service", tenantAggs(flows, s.a.names), multiMember, bound)
		}
	}
}

// shareAgg is one flow's, or one tenant's, window aggregate in the
// pairwise share checks.
type shareAgg struct {
	name    string
	app     iosched.AppID  // the flow; empty for a tenant
	idx     iosched.AppIdx // the flow's index
	service float64
	weight  float64      // a tenant's: Σ member effective weights
	maxUnit float64      // max cost/weight (the bound's c/w)
	members int          // qualifying member flows
	set     map[int]bool // cluster-wide: schedulers kept backlogged
}

// sortAggs orders aggregates by name, so checks and float rounding
// are deterministic.
func sortAggs(aggs []shareAgg) {
	slices.SortFunc(aggs, func(x, y shareAgg) int { return strings.Compare(x.name, y.name) })
}

// tenantAggs groups qualifying flows (sorted by app) by their tenant
// in tree, accumulating in app order so float rounding is
// deterministic, and unions their backlogged-scheduler sets.
func tenantAggs(flows []shareAgg, tree *shares.Tree) []shareAgg {
	var out []shareAgg
	idx := make(map[shares.TenantIdx]int)
	for _, f := range flows {
		tn := tree.TenantAt(f.idx)
		i, ok := idx[tn]
		if !ok {
			i = len(out)
			idx[tn] = i
			out = append(out, shareAgg{name: tree.TenantName(tn)})
		}
		t := &out[i]
		t.service += f.service
		t.weight += f.weight
		t.maxUnit = max(t.maxUnit, f.maxUnit)
		t.members++
		if f.set != nil {
			if t.set == nil {
				t.set = make(map[int]bool)
			}
			for id := range f.set {
				t.set[id] = true
			}
		}
	}
	sortAggs(out)
	return out
}

// multiMember admits a tenant pair unless both are singletons, whose
// comparison duplicates the per-app check.
func multiMember(x, y *shareAgg) bool { return x.members > 1 || y.members > 1 }

// shareWindow is one closing audit window's pairwise share checks:
// where they run (node -1 = cluster-wide), the window, and the
// dispatch depth D in their bounds.
type shareWindow struct {
	a          *Auditor
	node       int
	dev        string
	start, end float64
	d          int
}

// check compares the normalized service (service/weight) of every pair
// of aggs that pair admits (nil admits all), counting one inv check per
// pair, and records a violation when the difference exceeds bound.
// what names the compared quantity in the violation text.
func (w shareWindow) check(inv invariant, what string, aggs []shareAgg, pair func(x, y *shareAgg) bool, bound func(x, y *shareAgg, rx, ry float64) float64) {
	for i := range aggs {
		for j := i + 1; j < len(aggs); j++ {
			x, y := &aggs[i], &aggs[j]
			if pair != nil && !pair(x, y) {
				continue
			}
			w.a.count(inv)
			rx, ry := x.service/x.weight, y.service/y.weight
			b := bound(x, y, rx, ry)
			if diff := math.Abs(rx - ry); diff > b {
				w.a.violate(Violation{
					Time: w.end, Invariant: inv.String(), Node: w.node, Dev: w.dev, App: x.app,
					Detail: fmt.Sprintf("window [%.1fs,%.1fs): %s %s=%.4g vs %s=%.4g, |diff| %.4g > bound %.4g (D=%d)",
						w.start, w.end, what, x.name, rx, y.name, ry, diff, b, w.d),
				})
			}
		}
	}
}

// clusterState audits total-service proportional sharing across all
// coordinated schedulers. Each flow's backlog is read from the
// coordinated schedulers' own flowAudit at window close.
type clusterState struct {
	a        *Auditor
	members  int
	maxDepth int // running max dispatch depth over every coordinated record
	// flows is indexed by app index (nil = no completion yet).
	flows []*flowWindow
}

// complete books one coordinated completion into the app's
// cluster-wide window.
func (c *clusterState) complete(app iosched.AppIdx, name iosched.AppID, cost, weight float64) {
	if int(app) >= len(c.flows) {
		c.flows = append(c.flows, make([]*flowWindow, int(app)+1-len(c.flows))...)
	}
	f := c.flows[app]
	if f == nil {
		f = &flowWindow{app: name}
		c.flows[app] = f
	}
	f.add(cost, weight)
}

// checkWindow compares total normalized service between flows that
// share at least one continuously backlogged scheduler — the DSFQ
// regime: the delay rule at a shared scheduler compensates each flow
// for service received elsewhere, making *total* service proportional.
// The bound carries one (D+1)(c/w) term per coordinated scheduler plus
// a staleness term for service accrued during the coordination period
// but not yet reflected in the delay functions.
func (c *clusterState) checkWindow(start, end float64) {
	w := c.a.window
	// Each qualifying flow's backlogged set: the coordinated schedulers
	// on which it kept a non-empty queue for (nearly) the whole window.
	maxZero := w * backlogSlack
	sets := make([]map[int]bool, len(c.flows))
	for _, s := range c.a.scheds {
		if !s.coordinated {
			continue
		}
		for app, f := range s.flows {
			if cf := at(c.flows, app); f == nil || f.zeroDur > maxZero || cf == nil || !c.a.qualifies(cf) {
				continue
			}
			if sets[app] == nil {
				sets[app] = make(map[int]bool)
			}
			sets[app][s.id] = true
		}
	}
	var flows []shareAgg
	for app, f := range c.flows {
		if f == nil {
			continue
		}
		if set := sets[app]; set != nil {
			flows = append(flows, shareAgg{name: string(f.app), app: f.app, idx: iosched.AppIdx(app), service: f.service, weight: f.weight, maxUnit: f.maxUnit, members: 1, set: set})
		}
		f.service, f.requests = 0, 0
	}
	sortAggs(flows)
	// While any member is degraded — and for K recovery periods after —
	// the delay functions are allowed to be stale, so the cluster-wide
	// bound is suspended (it relaxes to the per-node bounds the
	// degraded schedulers are checked against). Past the grace the
	// window is checked again: reconvergence must actually happen.
	skipped := c.a.skipWindow(start, end)
	if skipped && len(flows) > 0 {
		c.a.count(invTotalProportionalShareSkipped)
	}
	if !skipped && overlaps(c.a.epochSkips, start, end) {
		// Reweight reconvergence: the delay functions are converging
		// toward the new targets for a bounded number of coordination
		// periods; past the grace the bound re-tightens.
		skipped = true
		if len(flows) > 0 {
			c.a.count(invShareSkippedEpoch)
		}
	}
	if !skipped {
		// Staleness allowance: up to one coordination period of each
		// flow's cluster-wide service rate may be unreported on both the
		// rising and falling edge of the window — plus, under a
		// federated plane, the hierarchy's aggregation lag
		// (FederationStaleness), which also renames the invariant to the
		// share-federated regime.
		lag := c.a.opts.CoordinationPeriod + c.a.opts.FederationStaleness
		totalInv := invTotalProportionalShare
		if c.a.opts.FederationStaleness > 0 {
			totalInv = invShareFederated
		}
		win := shareWindow{a: c.a, node: -1, start: start, end: end, d: max(c.maxDepth, 1)}
		bound := func(x, y *shareAgg, rx, ry float64) float64 {
			stale := 2 * lag * (rx + ry) / w
			return float64(win.d+1)*(x.maxUnit+y.maxUnit)*float64(c.members+1)*(1+shareSlack) + stale
		}
		shared := func(x, y *shareAgg) bool { return intersects(x.set, y.set) }
		win.check(totalInv, "total normalized service", flows, shared, bound)
		// Hierarchical cluster-wide check, by the same weighted-average
		// argument as the local one: tenant pairs qualify when their
		// members' backlogged-scheduler sets intersect and at least one
		// tenant has two or more qualifying members.
		if c.a.tenants && len(flows) > 1 {
			win.check(invTotalTenantProportionalShare, "tenant normalized service", tenantAggs(flows, c.a.names),
				func(x, y *shareAgg) bool { return multiMember(x, y) && shared(x, y) }, bound)
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
