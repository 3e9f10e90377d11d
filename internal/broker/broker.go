// Package broker implements IBIS's distributed I/O scheduling
// coordination (Section 5 of the paper): a centralized Scheduling Broker
// that aggregates each local scheduler's per-application service vector
// and returns the cluster-wide totals, plus the per-scheduler client
// that feeds those totals into the DSFQ delay rule of the local SFQ(D2)
// scheduler.
//
// In the Hadoop prototype the broker lives inside the YARN Resource
// Manager and its messages are piggybacked on the existing Node Manager
// heartbeats; here the exchange is modeled as a periodic request and
// response whose message sizes are accounted so the coordination
// overhead claims remain measurable.
//
// A Client speaks one message protocol to its broker, whichever
// Transport carries it: the response to each request arrives through
// a callback — inside the send for an in-process broker, at a later
// event across a delay or a simulation shard boundary, or never when a
// message is lost. The client arms its timeout only while a response
// is outstanding and cancels it when one is delivered.
//
// The exchange path is failure-aware: the Transport may fail (broker
// outage, message loss) or delay responses. The Client reacts with
// bounded retries under exponential backoff, and when exchanges keep
// failing for at least one coordination period it degrades gracefully
// — suspending the DSFQ delay rule so the local scheduler falls back
// to pure local SFQ(D) fairness — then reconciles on recovery via the
// idempotent cumulative vectors. Scheduler restarts wipe the client's
// in-memory view and force an explicit re-register handshake before
// exchanges resume.
//
// Every book a broker, client, partition or the federation root keeps
// per app or per tenant is a slice indexed by the share tree's dense
// iosched.AppIdx and shares.TenantIdx. Names travel on the wire — in
// exchange vectors, responses and the delta codec's per-link name
// table — and each end resolves a name to its index once: through the
// index hint a vector entry carries, checked against the name, or by
// one lookup when the name is new to it.
package broker

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
)

// Transport errors. ErrUnavailable means the broker could not be
// reached at all (outage or partition); ErrLost means a message was
// dropped in flight — the broker may or may not have applied the
// report, which the cumulative protocol makes safe to retry.
var (
	ErrUnavailable = errors.New("broker: unavailable")
	ErrLost        = errors.New("broker: message lost")
)

// Stats tracks coordination traffic for overhead accounting.
type Stats struct {
	// Exchanges counts report/response round trips.
	Exchanges uint64
	// EntriesUp is the total number of (app, service) pairs sent by
	// schedulers to the broker.
	EntriesUp uint64
	// EntriesDown is the total number of pairs returned.
	EntriesDown uint64
	// TenantEntriesDown is the number of (tenant, service) aggregates
	// piggybacked on responses for the tenant-level delay rule.
	TenantEntriesDown uint64
}

// BytesApprox estimates the wire volume of the coordination traffic,
// assuming 8-byte service values plus 16-byte identifiers for both
// per-app entries and the piggybacked tenant aggregates.
func (s Stats) BytesApprox() uint64 {
	return (s.EntriesUp + s.EntriesDown + s.TenantEntriesDown) * 24
}

// Merge folds other into s.
func (s *Stats) Merge(o Stats) {
	s.Exchanges += o.Exchanges
	s.EntriesUp += o.EntriesUp
	s.EntriesDown += o.EntriesDown
	s.TenantEntriesDown += o.TenantEntriesDown
}

// Broker is the centralized aggregation point. It keeps, per reporting
// scheduler, the last cumulative service vector, and maintains the
// per-application totals incrementally — the state is "simply a vector
// of total I/O service amount for all the applications in the system".
// That vector is a slice indexed by the share tree's AppIdx, and the
// tenant rollup one indexed by its TenantIdx.
type Broker struct {
	// reports holds each registered scheduler's last cumulative vector
	// by scheduler id, and registered holds the same reports in
	// registration order, for the sweeps over every report.
	reports    map[string]*report
	registered []*report
	apps       []appBook // by AppIdx
	// tenants rolls the live totals up by tenant (by TenantIdx),
	// grouped at view epoch epoch: exchanges fold deltas in, and every
	// other change regroups it.
	tenants []float64
	epoch   uint64
	view    *shares.Tree
	stats   Stats
	probe   Probe

	// Working buffers, reused across calls.
	touched []shares.TenantIdx
	order   []iosched.AppIdx
	sums    []float64
}

// report is one scheduler's last cumulative vector: its entries sorted
// by AppIdx, as a scheduler serves few of the cluster's apps.
type report struct {
	sched string
	cums  []appCum
}

type appCum struct {
	ai  iosched.AppIdx
	cum float64
}

// find returns the index of ai's entry, and whether there is one.
func (r *report) find(ai iosched.AppIdx) (int, bool) {
	return slices.BinarySearchFunc(r.cums, ai, func(c appCum, ai iosched.AppIdx) int { return cmp.Compare(c.ai, ai) })
}

// at returns ai's entry, adding a zero one if there is none.
func (r *report) at(ai iosched.AppIdx) *float64 {
	i, ok := r.find(ai)
	if !ok {
		r.cums = slices.Insert(r.cums, i, appCum{ai: ai})
	}
	return &r.cums[i].cum
}

// appBook is the broker's state of one app.
type appBook struct {
	total float64
	// live marks an app the totals count: reported since it was last
	// retired, reset or pruned. A total that is not live is 0.
	live    bool
	retired bool
	// final is the tombstone: the cluster-wide total the app had at
	// retirement. It keeps the service observable (Total) after
	// cleanup without participating in exchanges.
	final float64
	// snap holds, for a retired app, the per-scheduler entries Retire
	// scrubbed, so Revive can restore exact continuity instead of
	// rebuilding the total piecemeal from future exchanges.
	snap map[string]float64
}

// viewOf returns the share tree a plane attributes apps to tenants
// with: tree, or for nil a fresh tree of its own, in which every app
// auto-binds to its implicit singleton tenant — the flat per-app
// coordination. The tree also numbers the plane's apps and tenants
// (iosched.AppIdx, shares.TenantIdx), and its epoch moves whenever an
// attribution may have changed.
func viewOf(tree *shares.Tree) *shares.Tree {
	if tree == nil {
		return shares.NewTree()
	}
	return tree
}

// Response is one coordination response: the reported apps the broker
// counted and the cluster-wide service of the tenants that own them.
type Response struct {
	// Apps lists, sorted, the reported apps the totals count: every
	// reported app that is not retired.
	Apps []iosched.AppID
	// Tenants maps each tenant owning a reported app to the
	// cluster-wide cumulative service across ALL of that tenant's apps
	// — including apps this scheduler does not serve. This is the
	// aggregate the tenant-level DSFQ delay rule charges against, so
	// proportionality is enforced between tenants, not just between
	// the apps a single node happens to see.
	Tenants map[string]float64
}

// Probe observes each completed exchange: the reporting scheduler's id
// plus the broker itself, for invariant auditing (e.g. service
// conservation: the per-app sum of the latest local vectors must equal
// the global totals).
type Probe func(scheduler string, b *Broker)

// SetProbe installs the exchange probe (nil disables).
func (b *Broker) SetProbe(p Probe) { b.probe = p }

// New creates an empty broker whose apps are implicit singleton
// tenants.
func New() *Broker {
	return &Broker{reports: make(map[string]*report), view: shares.NewTree()}
}

// book returns app ai's state, growing the books to hold it.
func (b *Broker) book(ai iosched.AppIdx) *appBook { return slot(&b.apps, int(ai)) }

// lookup returns a known app's state, or nil; it binds nothing.
func (b *Broker) lookup(app iosched.AppID) *appBook {
	if ai, ok := b.view.Lookup(app); ok && int(ai) < len(b.apps) {
		return &b.apps[ai]
	}
	return nil
}

// ResetReports models the broker process restarting with empty memory:
// every report vector and every live total is dropped, and the next
// exchanges rebuild them — each scheduler's full cumulative vector
// applies as a fresh delta from zero, so totals reconverge without
// double counting. Retirement state (flags, tombstones) survives: it
// is control-plane membership knowledge, not broker memory.
func (b *Broker) ResetReports() {
	b.reports, b.registered = make(map[string]*report), nil
	for i := range b.apps {
		ab := &b.apps[i]
		ab.total, ab.live, ab.snap = 0, false, nil
	}
	b.regroup()
}

// Exchange is one coordination round trip for the named scheduler: it
// reports its cumulative per-app service (cost units) and receives the
// cluster-wide totals of the tenants owning the apps it reported — the
// response "is bounded by the number of applications that the
// scheduler currently serves", and so is the work. The vector is
// sorted by app, as a Reporter's is, and the reported deltas fold into
// the totals and the rollup in that order, so rounding does not depend
// on the order apps were numbered in. The response is fresh each call.
// Retired apps are skipped in both directions: their pruned state must
// not be resurrected by the stale entries local accounting carries.
func (b *Broker) Exchange(scheduler string, vector []iosched.AppCost) Response {
	return b.exchange(scheduler, vector, nil)
}

// exchange is Exchange with remote(t) added to each returned tenant
// total (a partition's view of the rest of the federation; nil: none).
func (b *Broker) exchange(scheduler string, vector []iosched.AppCost, remote func(shares.TenantIdx) float64) Response {
	b.refresh()
	prev := b.register(scheduler)
	resp := Response{Apps: make([]iosched.AppID, 0, len(vector)), Tenants: make(map[string]float64, len(vector))}
	touched := b.touched[:0]
	for _, e := range vector {
		ai := b.view.Index(e.App, e.Idx)
		if ai == iosched.NoApp {
			continue
		}
		ab := b.book(ai)
		if ab.retired {
			continue
		}
		resp.Apps = append(resp.Apps, e.App)
		cum := prev.at(ai)
		d := e.Cost - *cum
		*cum = e.Cost
		ab.total += d
		ab.live = true
		t := b.view.TenantAt(ai)
		*slot(&b.tenants, int(t)) += d
		touched = append(touched, t)
	}
	for _, t := range touched {
		v := b.tenants[t]
		if remote != nil {
			v += remote(t)
		}
		resp.Tenants[b.view.TenantName(t)] = v
	}
	b.touched = touched
	b.stats.Exchanges++
	b.stats.EntriesUp += uint64(len(resp.Apps))
	b.stats.EntriesDown += uint64(len(resp.Apps))
	b.stats.TenantEntriesDown += uint64(len(resp.Tenants))
	if b.probe != nil {
		b.probe(scheduler, b)
	}
	return resp
}

// Register ensures the scheduler has a report slot. It is idempotent —
// re-registration after a scheduler restart keeps the previous
// cumulative vector, which is exactly what makes the restarted
// client's full re-report apply as a no-op delta.
func (b *Broker) Register(scheduler string) { b.register(scheduler) }

// register returns the scheduler's report, adding an empty one.
func (b *Broker) register(scheduler string) *report {
	r := b.reports[scheduler]
	if r == nil {
		r = &report{sched: scheduler}
		b.reports[scheduler] = r
		b.registered = append(b.registered, r)
	}
	return r
}

// Unregister removes a scheduler (a dead node's device): its last
// reported vector is subtracted from the totals so the dead node's
// service stops counting forever, and per-app totals no longer backed
// by any live report are pruned.
func (b *Broker) Unregister(scheduler string) {
	r, ok := b.reports[scheduler]
	if !ok {
		return
	}
	delete(b.reports, scheduler)
	b.registered = slices.DeleteFunc(b.registered, func(x *report) bool { return x == r })
	for _, c := range r.cums {
		ab := b.book(c.ai)
		ab.total -= c.cum
		ab.live = true
	}
	b.pruneUnbacked()
	b.regroup()
}

// Retire drops an application that finished: its entries are pruned
// from every report and from the totals, and further exchanges skip it
// (local accounting never forgets an app, so without the skip the next
// report would resurrect the full cumulative value). The final total is
// kept as a tombstone so the app's cluster-wide service stays
// observable through Total after cleanup.
func (b *Broker) Retire(app iosched.AppID) {
	ai := b.view.Index(app, iosched.NoApp)
	if ai == iosched.NoApp || b.book(ai).retired {
		return
	}
	ab := b.book(ai)
	ab.retired = true
	ab.final = ab.total
	for _, r := range b.registered {
		if i, ok := r.find(ai); ok {
			if ab.snap == nil {
				ab.snap = make(map[string]float64)
			}
			ab.snap[r.sched] = r.cums[i].cum
			r.cums = slices.Delete(r.cums, i, i+1)
		}
	}
	ab.total, ab.live = 0, false
	b.regroup()
}

// Revive reverses Retire for an application that starts doing I/O again
// (e.g. a later stage of a multi-stage query reusing the app id). The
// per-scheduler entries Retire scrubbed are re-snapshotted into the
// report vectors — for schedulers still registered — and the total is
// rebuilt from them, so the app resumes with exact continuity: the
// next exchange applies only the true delta accrued since retirement.
// Without the snapshot the total would rebuild piecemeal (partial
// until every scheduler re-reported) and, if the backing reports
// unregistered first, pruneUnbacked would drop the rebuilt value and
// Total would surface the stale tombstone.
func (b *Broker) Revive(app iosched.AppID) {
	ai, ok := b.view.Lookup(app)
	if !ok || int(ai) >= len(b.apps) || !b.apps[ai].retired {
		return
	}
	ab := &b.apps[ai]
	ab.retired = false
	total := 0.0
	// Restore in sorted-scheduler order for deterministic rounding;
	// entries whose scheduler unregistered during retirement stay
	// dropped — Unregister would have subtracted them anyway.
	scheds := make([]string, 0, len(ab.snap))
	for sched := range ab.snap {
		scheds = append(scheds, sched)
	}
	sort.Strings(scheds)
	for _, sched := range scheds {
		if r, ok := b.reports[sched]; ok {
			*r.at(ai) = ab.snap[sched]
			total += ab.snap[sched]
		}
	}
	ab.snap = nil
	if total > 0 {
		ab.total, ab.live = total, true
	}
	ab.final = 0
	b.regroup()
}

// Retired reports whether the app is currently retired.
func (b *Broker) Retired(app iosched.AppID) bool {
	ab := b.lookup(app)
	return ab != nil && ab.retired
}

// pruneUnbacked drops the totals of apps present in no report. Their
// remaining value is float residue from subtraction, not service.
func (b *Broker) pruneUnbacked() {
	backed := make([]bool, len(b.apps))
	for _, r := range b.registered {
		for _, c := range r.cums {
			backed[c.ai] = true
		}
	}
	for ai := range b.apps {
		if ab := &b.apps[ai]; ab.live && !backed[ai] {
			ab.total, ab.live = 0, false
		}
	}
}

// Total returns the cluster-wide cumulative service for one app. For a
// retired app this is its tombstoned final total (a revived app
// resumes live accounting at its first exchange).
func (b *Broker) Total(app iosched.AppID) float64 {
	ab := b.lookup(app)
	switch {
	case ab == nil:
		return 0
	case ab.live:
		return ab.total
	}
	return ab.final
}

// Apps returns all known apps, sorted.
func (b *Broker) Apps() []iosched.AppID {
	order := b.liveByName()
	ids := make([]iosched.AppID, len(order))
	for i, ai := range order {
		ids[i] = b.view.AppName(ai)
	}
	return ids
}

// liveByName returns the live apps sorted by name, in a reused slice.
func (b *Broker) liveByName() []iosched.AppIdx {
	order := b.order[:0]
	for ai := range b.apps {
		if b.apps[ai].live {
			order = append(order, iosched.AppIdx(ai))
		}
	}
	slices.SortFunc(order, func(x, y iosched.AppIdx) int {
		return strings.Compare(string(b.view.AppName(x)), string(b.view.AppName(y)))
	})
	b.order = order
	return order
}

// TenantTotals returns a copy of the tenant rollup by tenant name: the
// live per-app totals summed by tenant.
func (b *Broker) TenantTotals() map[string]float64 {
	b.refresh()
	out := make(map[string]float64)
	for ai := range b.apps {
		if b.apps[ai].live {
			t := b.view.TenantAt(iosched.AppIdx(ai))
			out[b.view.TenantName(t)] = at(b.tenants, int(t))
		}
	}
	return out
}

// regrouped sums the live per-app totals by tenant into into (resized
// and zeroed), accumulating in sorted-app order for deterministic
// rounding.
func (b *Broker) regrouped(into []float64) []float64 {
	into = zeroed(into, b.view.NumTenants())
	for _, ai := range b.liveByName() {
		into[b.view.TenantAt(ai)] += b.apps[ai].total
	}
	return into
}

// regroup rebuilds the tenant rollup at the view's current epoch: the
// rare paths that remove or move service call it, so the fold in
// Exchange only ever adds exchange deltas.
func (b *Broker) regroup() {
	b.epoch = b.view.Epoch()
	b.tenants = b.regrouped(b.tenants)
}

// refresh regroups the rollup if the share view moved since the rollup
// was last grouped: a binding may have moved an app between tenants.
func (b *Broker) refresh() {
	if b.view.Epoch() != b.epoch {
		b.regroup()
	}
}

// CheckConservation verifies the broker's books: every live app's
// total equals the sum of the latest per-scheduler reports, and the
// tenant rollup equals a regroup of the totals. Both compare within a
// relative 1e-6, as the two sides sum in different orders. It returns
// the first discrepancy found.
func (b *Broker) CheckConservation() error {
	sums := zeroed(b.sums, len(b.apps))
	for _, r := range b.registered {
		for _, c := range r.cums {
			sums[c.ai] += c.cum
		}
	}
	b.sums = sums
	for ai, ab := range b.apps {
		if ab.live && !near(sums[ai], ab.total) {
			return fmt.Errorf("broker: conservation: app %s sum of reports %.6g != total %.6g", b.view.AppName(iosched.AppIdx(ai)), sums[ai], ab.total)
		}
	}
	return b.CheckRollup()
}

// CheckRollup verifies the incremental tenant rollup against a fresh
// regroup of the live per-app totals, within a relative 1e-6 (the two
// round differently). A rollup entry for a tenant without live apps
// must be 0. It returns the first discrepancy found.
func (b *Broker) CheckRollup() error {
	b.refresh()
	want := b.regrouped(b.sums)
	b.sums = want
	for t := range max(len(want), len(b.tenants)) {
		if got, exp := at(b.tenants, t), at(want, t); !near(got, exp) {
			return fmt.Errorf("broker: tenant rollup: tenant %s folded %.6g != regrouped %.6g", b.view.TenantName(shares.TenantIdx(t)), got, exp)
		}
	}
	return nil
}

// near reports whether got is within a relative 1e-6 of want.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// Schedulers returns the registered scheduler ids, sorted.
func (b *Broker) Schedulers() []string {
	ids := make([]string, 0, len(b.registered))
	for _, r := range b.registered {
		ids = append(ids, r.sched)
	}
	sort.Strings(ids)
	return ids
}

// Stats returns the accumulated traffic counters.
func (b *Broker) Stats() Stats { return b.stats }

// Reporter exposes the cumulative per-app service of a local
// scheduler, sorted by app; *iosched.Accounting satisfies it.
type Reporter interface {
	CostVector() []iosched.AppCost
}

// Transport carries one client's coordination messages to its broker.
// Each exchange and each registration is a request whose response
// reaches the client through done, on the client's engine: inside the
// call (an in-process broker, or a failure known at send time), at a
// later event, or never (a message lost in flight, which the client's
// own timeout covers).
type Transport interface {
	// Exchange sends the scheduler's cumulative vector to the broker.
	// done receives the response, or a delivered failure such as
	// ErrUnavailable or ErrLost. On error the broker may or may not
	// have applied the report (response loss); retrying is safe because
	// vectors are cumulative.
	Exchange(id string, vector []iosched.AppCost, done func(Response, error))
	// Register performs the (re-)registration handshake.
	Register(id string, done func(error))
	// Unregister removes the scheduler's report from the broker. It
	// models out-of-band node-death detection (YARN's liveness
	// tracking), so it is not subject to message faults.
	Unregister(id string)
}

// retryPolicy is the client's failure handling. Every value derives
// from the coordination period (retryPolicyFor).
type retryPolicy struct {
	// maxRetries bounds re-attempts per round after the first failure.
	maxRetries int
	// baseBackoff is the first retry delay; each further retry doubles
	// it up to maxBackoff.
	baseBackoff float64
	maxBackoff  float64
	// jitterFrac adds up to this fraction of the backoff as
	// deterministic jitter, decorrelating clients.
	jitterFrac float64
	// timeout is how long the client waits for a response before
	// declaring the attempt dead. Responses arriving later are
	// discarded.
	timeout float64
	// degradeAfter is how long exchanges must keep failing before the
	// client suspends the DSFQ delay rule and falls back to local
	// fairness: one period, per the paper's staleness bound.
	degradeAfter float64
}

// retryPolicyFor returns the failure handling for a coordination
// period: 3 retries backing off from period/20 to period/4 with 25%
// jitter, a period/4 timeout, and degradation after one period.
func retryPolicyFor(period float64) retryPolicy {
	return retryPolicy{
		maxRetries:   3,
		baseBackoff:  period / 20,
		maxBackoff:   period / 4,
		jitterFrac:   0.25,
		timeout:      period / 4,
		degradeAfter: period,
	}
}

// ClientState is the client's position in the degradation state
// machine.
type ClientState int

const (
	// StateHealthy: exchanges are succeeding; the delay rule is live.
	StateHealthy ClientState = iota
	// StateRetrying: exchanges are failing but the failure stretch is
	// still shorter than one coordination period; the delay rule runs
	// on the last good totals.
	StateRetrying
	// StateDegraded: coordination is suspended; the scheduler enforces
	// pure local SFQ(D) fairness until an exchange succeeds.
	StateDegraded
)

// String names the state.
func (s ClientState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateRetrying:
		return "retrying"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("ClientState(%d)", int(s))
	}
}

// ClientOptions configure NewClient.
type ClientOptions struct {
	// Transport carries the exchanges. Nil means the client never
	// coordinates (the paper's "No Sync").
	Transport Transport
	// Period is the coordination period in seconds (default 1). The
	// client's retry, timeout and degradation rule derive from it.
	Period float64
	// Shares attributes apps to tenants on the client side (nil means
	// implicit singleton tenants, i.e. flat per-app coordination). It
	// must be the view the broker aggregates against.
	Shares *shares.Tree
}

// Client performs the periodic exchange for one local scheduler and
// implements iosched.Coordinator: OtherService(app) returns the service
// the app's *tenant* has received on all other nodes, per the broker's
// latest applied response. With only implicit singleton tenants this is
// exactly the app's own remote service (the flat pre-tree semantics);
// with declared tenants the DSFQ delay charges the whole tenant's
// remote service, enforcing tenant-level proportionality; attribution
// resolves through the share view on every lookup. A Client with a nil
// transport never coordinates (No Sync).
type Client struct {
	id        string
	transport Transport // nil for a No Sync client
	reporter  Reporter
	eng       *sim.Engine
	period    float64
	policy    retryPolicy
	view      *shares.Tree

	// otherTenant is the remote service per tenant (by TenantIdx) as
	// of the last applied response; local is apply's working buffer.
	otherTenant []float64
	local       []float64
	rounds      uint64

	sched     *iosched.SFQ
	onDegrade func(t float64)
	onRecover func(t float64)

	state        ClientState
	failingSince float64 // start of the current failure stretch; -1 when none
	degradedAt   float64
	attempt      int  // retries consumed in the current round
	inRound      bool // a round (or its retries/timeout) is outstanding
	needRegister bool
	detached     bool

	// epoch obsoletes in-flight continuations across restart/detach;
	// the (nextSeq, appliedHi) pair discards out-of-order responses.
	epoch     uint64
	nextSeq   uint64
	appliedHi uint64

	retryEv sim.Event

	health metrics.CoordinationHealth
}

var _ iosched.Coordinator = (*Client)(nil)

// NewClient wires a scheduler's accounting to its broker through
// opts.Transport. The periodic exchange (every opts.Period seconds; the
// paper uses 1 s, piggybacked on heartbeats) is a daemon event: it does
// not keep the simulation alive once the workload drains.
func NewClient(eng *sim.Engine, id string, reporter Reporter, opts ClientOptions) *Client {
	period := opts.Period
	if period <= 0 {
		period = 1
	}
	c := &Client{
		id:           id,
		transport:    opts.Transport,
		reporter:     reporter,
		eng:          eng,
		period:       period,
		policy:       retryPolicyFor(period),
		view:         viewOf(opts.Shares),
		failingSince: -1,
		nextSeq:      1,
	}
	var tick func()
	tick = func() {
		c.tick()
		if !c.detached {
			eng.ScheduleDaemon(period, tick)
		}
	}
	eng.ScheduleDaemon(period, tick)
	return c
}

// BindScheduler links the client to its local SFQ scheduler so
// degradation can suspend and resume the DSFQ delay rule.
func (c *Client) BindScheduler(s *iosched.SFQ) { c.sched = s }

// SetOnDegrade installs a callback fired when the client enters the
// degraded state (for audit wiring).
func (c *Client) SetOnDegrade(fn func(t float64)) { c.onDegrade = fn }

// SetOnRecover installs a callback fired when a degraded client
// recovers.
func (c *Client) SetOnRecover(fn func(t float64)) { c.onRecover = fn }

// tick is the periodic coordination round.
func (c *Client) tick() {
	if c.transport == nil || c.detached {
		return
	}
	if c.inRound {
		// The previous round is still retrying or awaiting a response;
		// don't stack rounds on a struggling broker — but keep the
		// degradation clock honest.
		c.health.SkippedRounds++
		c.maybeDegrade(c.eng.Now())
		return
	}
	c.beginRound()
}

// ExchangeNow performs one immediate round trip (a no-op while a round
// is already outstanding).
func (c *Client) ExchangeNow() {
	if c.transport == nil || c.detached || c.inRound {
		return
	}
	c.beginRound()
}

func (c *Client) beginRound() {
	c.inRound = true
	c.attempt = 0
	c.sendAttempt()
}

// sendAttempt issues one exchange (or re-register handshake) attempt.
func (c *Client) sendAttempt() {
	if c.detached {
		c.inRound = false
		return
	}
	if c.needRegister {
		c.sendRegister()
		return
	}
	seq := c.nextSeq
	c.nextSeq++
	c.health.Attempts++
	vec := c.reporter.CostVector()
	r := &pending{epoch: c.epoch}
	c.transport.Exchange(c.id, vec, func(resp Response, err error) {
		if !c.deliver(r) || seq <= c.appliedHi {
			c.health.StaleDrops++
			return
		}
		if err != nil {
			c.fail(c.eng.Now())
			return
		}
		c.appliedHi = seq
		c.apply(vec, resp, c.eng.Now())
	})
	c.await(r)
}

// sendRegister performs the explicit post-restart handshake; on success
// it chains straight into a normal exchange to re-seed the client's
// remote-service view.
func (c *Client) sendRegister() {
	c.health.Attempts++
	r := &pending{epoch: c.epoch}
	c.transport.Register(c.id, func(err error) {
		if !c.deliver(r) {
			c.health.StaleDrops++
			return
		}
		if err != nil {
			c.fail(c.eng.Now())
			return
		}
		c.needRegister = false
		c.health.ReRegisters++
		c.attempt = 0
		c.sendAttempt()
	})
	c.await(r)
}

// pending is one request awaiting its response: the client epoch it
// was sent in, and its timeout while one is armed.
type pending struct {
	epoch    uint64
	timeout  sim.Event
	arrived  bool
	timedOut bool
}

// await arms the request's timeout, unless the response already
// arrived inside the send: an in-process reply never arms a timer.
func (c *Client) await(r *pending) {
	if r.arrived {
		return
	}
	r.timeout = c.eng.ScheduleDaemon(c.policy.timeout, func() {
		if c.epoch != r.epoch {
			return
		}
		r.timedOut = true
		c.health.Timeouts++
		c.fail(c.eng.Now())
	})
}

// deliver records the response's arrival, cancelling an armed timeout,
// and reports whether the response is still current: not obsoleted by
// a restart or detach, and not already given up on.
func (c *Client) deliver(r *pending) bool {
	r.arrived = true
	c.eng.Cancel(r.timeout)
	return c.epoch == r.epoch && !r.timedOut
}

// apply folds a successful response into the client's remote-service
// view and completes the round. The view is tenant-level: for each
// tenant in the response, remote service = cluster-wide tenant total
// minus the local per-tenant sum, over the apps the broker counted
// (resp.Apps, sorted), of the vector this round reported (vec, sorted):
// a retired app has left its tenant's total, so it must not count
// locally either. Tenants the response no longer carries (retired
// apps, dissolved tenants) drop to zero.
func (c *Client) apply(vec []iosched.AppCost, resp Response, now float64) {
	clear(c.local)
	i := 0
	for _, e := range vec {
		for i < len(resp.Apps) && resp.Apps[i] < e.App {
			i++
		}
		if i < len(resp.Apps) && resp.Apps[i] == e.App {
			*slot(&c.local, int(c.view.TenantAt(c.view.Index(e.App, e.Idx)))) += e.Cost
		}
	}
	clear(c.otherTenant)
	for name, total := range resp.Tenants {
		t := c.view.TenantIndex(name)
		other := total - at(c.local, int(t))
		if other < 0 {
			other = 0
		}
		*slot(&c.otherTenant, int(t)) = other
	}
	c.rounds++
	c.health.Successes++
	c.noteSuccess(now)
}

func (c *Client) noteSuccess(now float64) {
	c.inRound = false
	c.attempt = 0
	c.failingSince = -1
	wasDegraded := c.state == StateDegraded
	c.state = StateHealthy
	if wasDegraded {
		c.health.Recoveries++
		c.health.DegradedTime += now - c.degradedAt
		// Resume with a resync: the scheduler re-snapshots the fresh
		// remote totals per flow instead of charging the whole outage's
		// accumulated delta — the stale-total clamp that keeps a
		// returning node from being starved.
		if c.sched != nil {
			c.sched.ResumeCoordination()
		}
		if c.onRecover != nil {
			c.onRecover(now)
		}
	}
}

// fail handles one failed attempt: backoff-retry while the budget
// lasts, then abandon the round to the next periodic tick.
func (c *Client) fail(now float64) {
	c.health.Failures++
	if c.failingSince < 0 {
		c.failingSince = now
		if c.state == StateHealthy {
			c.state = StateRetrying
		}
	}
	c.maybeDegrade(now)
	if c.attempt < c.policy.maxRetries {
		c.attempt++
		c.health.Retries++
		epoch := c.epoch
		c.retryEv = c.eng.ScheduleDaemon(c.backoff(c.attempt), func() {
			if c.epoch == epoch {
				c.sendAttempt()
			}
		})
		return
	}
	c.inRound = false
	c.health.SkippedRounds++
}

// backoff returns the delay before retry `attempt` (1-based):
// exponential from baseBackoff, capped at maxBackoff, plus
// deterministic jitter hashed from (client id, attempt sequence).
func (c *Client) backoff(attempt int) float64 {
	d := c.policy.baseBackoff * math.Pow(2, float64(attempt-1))
	if d > c.policy.maxBackoff {
		d = c.policy.maxBackoff
	}
	return d + c.policy.jitterFrac*d*hash01(c.id, c.nextSeq)
}

func (c *Client) maybeDegrade(now float64) {
	if c.state == StateDegraded || c.failingSince < 0 {
		return
	}
	if now-c.failingSince < c.policy.degradeAfter-1e-12 {
		return
	}
	c.degrade(now)
}

func (c *Client) degrade(now float64) {
	c.state = StateDegraded
	c.degradedAt = now
	c.health.Degradations++
	if c.sched != nil {
		c.sched.SuspendCoordination()
	}
	if c.onDegrade != nil {
		c.onDegrade(now)
	}
}

// Restart models the scheduler process restarting: the client's
// in-memory view of remote service is wiped, in-flight continuations
// (retries, delayed responses) are obsoleted, and the client must
// complete an explicit re-register handshake before exchanging again.
// Until that succeeds the client runs degraded — a freshly restarted
// node has no basis for the delay rule.
func (c *Client) Restart() {
	if c.detached || c.transport == nil {
		return
	}
	now := c.eng.Now()
	c.health.Restarts++
	c.epoch++
	c.eng.Cancel(c.retryEv)
	clear(c.otherTenant)
	c.inRound = false
	c.attempt = 0
	c.needRegister = true
	if c.failingSince < 0 {
		c.failingSince = now
	}
	if c.state != StateDegraded {
		c.degrade(now)
	}
	// The restarted process comes straight back up and re-registers
	// (subject to whatever faults the transport injects).
	c.beginRound()
}

// Detach permanently removes the client from coordination: ticks stop,
// in-flight continuations are obsoleted, and the broker unregisters
// the scheduler so a dead node's last vector stops counting toward the
// totals forever.
func (c *Client) Detach() {
	if c.detached {
		return
	}
	c.detached = true
	c.epoch++
	c.eng.Cancel(c.retryEv)
	c.inRound = false
	if c.transport != nil {
		c.transport.Unregister(c.id)
	}
}

// Detached reports whether the client has been permanently detached.
func (c *Client) Detached() bool { return c.detached }

// OtherService implements iosched.Coordinator: the remote service of
// the app's tenant. For implicit singleton tenants this is the app's
// own remote service, bit-identical to the flat semantics. idx is the
// app's index hint (iosched.NoApp if none).
func (c *Client) OtherService(app iosched.AppID, idx iosched.AppIdx) float64 {
	ai := c.view.Index(app, idx)
	if ai == iosched.NoApp {
		return 0
	}
	return at(c.otherTenant, int(c.view.TenantAt(ai)))
}

// Rounds returns the number of successful exchanges applied.
func (c *Client) Rounds() uint64 { return c.rounds }

// State returns the client's degradation state.
func (c *Client) State() ClientState { return c.state }

// ID returns the scheduler id the client reports as.
func (c *Client) ID() string { return c.id }

// Health returns a copy of the fault-tolerance counters. For a client
// currently degraded, DegradedTime excludes the open interval.
func (c *Client) Health() metrics.CoordinationHealth { return c.health }

// hash01 maps (id, n) to [0,1) via FNV-1a into a splitmix64 finalizer —
// a pure function so jitter never perturbs determinism.
func hash01(id string, n uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return float64(splitmix64(h^n)>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
