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
package broker

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"ibis/internal/iosched"
	"ibis/internal/metrics"
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
type Broker struct {
	reports map[string]map[iosched.AppID]float64
	totals  map[iosched.AppID]float64
	// tenants rolls totals up by tenant, grouped at view epoch epoch:
	// exchanges fold deltas in, and every other change regroups it.
	tenants map[string]float64
	epoch   uint64
	retired map[iosched.AppID]bool
	// finals are tombstones: the cluster-wide total each retired app
	// had at retirement. They keep the service observable (Total)
	// after cleanup without participating in exchanges.
	finals map[iosched.AppID]float64
	// retireSnaps hold, per retired app, the per-scheduler entries
	// Retire scrubbed, so Revive can restore exact continuity instead
	// of rebuilding the total piecemeal from future exchanges.
	retireSnaps map[iosched.AppID]map[string]float64
	view        ShareView
	stats       Stats
	probe       Probe
}

// ShareView is the slice of the share tree the coordination plane
// needs: tenant attribution and the epoch that moves when attribution
// may have changed. *shares.Tree implements it. The constructors
// replace a nil view with implicit singleton tenants at epoch 0, which
// reproduces the flat per-app coordination exactly.
type ShareView interface {
	TenantOf(app iosched.AppID) string
	Epoch() uint64
}

// singletons is the view of a plane without a share tree: every app is
// its own implicit tenant, and the attribution never moves.
type singletons struct{}

func (singletons) TenantOf(app iosched.AppID) string { return implicitTenant(app) }
func (singletons) Epoch() uint64                     { return 0 }

// viewOf returns v, or the implicit singletons for a nil v.
func viewOf(v ShareView) ShareView {
	if v == nil {
		return singletons{}
	}
	return v
}

// implicitTenant mirrors shares.ImplicitTenant without importing the
// shares package (which would be legal, but the coordination plane
// should not depend on the control plane's full API for one string).
func implicitTenant(app iosched.AppID) string { return "~" + string(app) }

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
	return &Broker{
		reports:     make(map[string]map[iosched.AppID]float64),
		totals:      make(map[iosched.AppID]float64),
		tenants:     make(map[string]float64),
		retired:     make(map[iosched.AppID]bool),
		finals:      make(map[iosched.AppID]float64),
		retireSnaps: make(map[iosched.AppID]map[string]float64),
		view:        singletons{},
	}
}

// ResetReports models the broker process restarting with empty memory:
// every report vector and every live total is dropped, and the next
// exchanges rebuild them — each scheduler's full cumulative vector
// applies as a fresh delta from zero, so totals reconverge without
// double counting. Retirement state (flags, tombstones) survives: it
// is control-plane membership knowledge, not broker memory.
func (b *Broker) ResetReports() {
	b.reports = make(map[string]map[iosched.AppID]float64)
	b.totals = make(map[iosched.AppID]float64)
	b.retireSnaps = make(map[iosched.AppID]map[string]float64)
	b.regroup()
}

// Exchange is one coordination round trip for the named scheduler: it
// reports its cumulative per-app service (cost units) and receives the
// cluster-wide totals of the tenants owning the apps it reported — the
// response "is bounded by the number of applications that the
// scheduler currently serves", and so is the work: the reported deltas
// fold into the totals and the rollup in sorted-app order, so rounding
// does not depend on map layout. The response is fresh each call.
// Retired apps are skipped in both directions: their pruned state must
// not be resurrected by the stale entries local accounting carries.
func (b *Broker) Exchange(scheduler string, vector map[iosched.AppID]float64) Response {
	b.refresh()
	prev := b.reports[scheduler]
	if prev == nil {
		prev = make(map[iosched.AppID]float64)
		b.reports[scheduler] = prev
	}
	apps := make([]iosched.AppID, 0, len(vector))
	for app := range vector {
		if !b.retired[app] {
			apps = append(apps, app)
		}
	}
	slices.Sort(apps)
	resp := Response{Apps: apps, Tenants: make(map[string]float64, len(apps))}
	for _, app := range apps {
		d := vector[app] - prev[app]
		prev[app] = vector[app]
		b.totals[app] += d
		t := b.view.TenantOf(app)
		b.tenants[t] += d
		resp.Tenants[t] = 0
	}
	for t := range resp.Tenants {
		resp.Tenants[t] = b.tenants[t]
	}
	b.stats.Exchanges++
	b.stats.EntriesUp += uint64(len(apps))
	b.stats.EntriesDown += uint64(len(apps))
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
func (b *Broker) Register(scheduler string) {
	if b.reports[scheduler] == nil {
		b.reports[scheduler] = make(map[iosched.AppID]float64)
	}
}

// Unregister removes a scheduler (a dead node's device): its last
// reported vector is subtracted from the totals so the dead node's
// service stops counting forever, and per-app totals no longer backed
// by any live report are pruned.
func (b *Broker) Unregister(scheduler string) {
	vec, ok := b.reports[scheduler]
	if !ok {
		return
	}
	delete(b.reports, scheduler)
	for app, cum := range vec {
		b.totals[app] -= cum
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
	if b.retired[app] {
		return
	}
	b.retired[app] = true
	b.finals[app] = b.totals[app]
	var snap map[string]float64
	for sched, vec := range b.reports {
		if cum, ok := vec[app]; ok {
			if snap == nil {
				snap = make(map[string]float64)
			}
			snap[sched] = cum
			delete(vec, app)
		}
	}
	if snap != nil {
		b.retireSnaps[app] = snap
	}
	delete(b.totals, app)
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
	if !b.retired[app] {
		return
	}
	delete(b.retired, app)
	total := 0.0
	if snap := b.retireSnaps[app]; snap != nil {
		// Restore in sorted-scheduler order for deterministic rounding;
		// entries whose scheduler unregistered during retirement stay
		// dropped — Unregister would have subtracted them anyway.
		scheds := make([]string, 0, len(snap))
		for sched := range snap {
			if _, ok := b.reports[sched]; ok {
				scheds = append(scheds, sched)
			}
		}
		sort.Strings(scheds)
		for _, sched := range scheds {
			b.reports[sched][app] = snap[sched]
			total += snap[sched]
		}
		delete(b.retireSnaps, app)
	}
	if total > 0 {
		b.totals[app] = total
	}
	delete(b.finals, app)
	b.regroup()
}

// Retired reports whether the app is currently retired.
func (b *Broker) Retired(app iosched.AppID) bool { return b.retired[app] }

// pruneUnbacked deletes totals entries for apps present in no report.
// Their remaining value is float residue from subtraction, not service.
func (b *Broker) pruneUnbacked() {
	for app := range b.totals {
		backed := false
		for _, vec := range b.reports {
			if _, ok := vec[app]; ok {
				backed = true
				break
			}
		}
		if !backed {
			delete(b.totals, app)
		}
	}
}

// ReportedTotals sums the latest per-scheduler service vectors per app —
// the quantity that must equal the incrementally maintained totals if
// the broker conserves service.
func (b *Broker) ReportedTotals() map[iosched.AppID]float64 {
	sums := make(map[iosched.AppID]float64, len(b.totals))
	for _, vec := range b.reports {
		for app, cum := range vec {
			sums[app] += cum
		}
	}
	return sums
}

// Total returns the cluster-wide cumulative service for one app. For a
// retired app this is its tombstoned final total (a revived app
// resumes live accounting at its first exchange).
func (b *Broker) Total(app iosched.AppID) float64 {
	if v, ok := b.totals[app]; ok {
		return v
	}
	return b.finals[app]
}

// Apps returns all known apps, sorted.
func (b *Broker) Apps() []iosched.AppID {
	ids := make([]iosched.AppID, 0, len(b.totals))
	for id := range b.totals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TenantTotals returns a copy of the tenant rollup: the live per-app
// totals summed by tenant.
func (b *Broker) TenantTotals() map[string]float64 {
	b.refresh()
	return maps.Clone(b.tenants)
}

// regrouped sums the live per-app totals by tenant, accumulating in
// sorted-app order for deterministic rounding.
func (b *Broker) regrouped() map[string]float64 {
	out := make(map[string]float64)
	for _, app := range b.Apps() {
		out[b.view.TenantOf(app)] += b.totals[app]
	}
	return out
}

// regroup rebuilds the tenant rollup at the view's current epoch: the
// rare paths that remove or move service call it, so the fold in
// Exchange only ever adds exchange deltas.
func (b *Broker) regroup() {
	b.epoch = b.view.Epoch()
	b.tenants = b.regrouped()
}

// refresh regroups the rollup if the share view moved since the rollup
// was last grouped: a binding may have moved an app between tenants.
func (b *Broker) refresh() {
	if b.view.Epoch() != b.epoch {
		b.regroup()
	}
}

// CheckRollup verifies the incremental tenant rollup against a fresh
// regroup of the live per-app totals, within a relative 1e-6 (the two
// round differently). It returns the first discrepancy found.
func (b *Broker) CheckRollup() error {
	b.refresh()
	want := b.regrouped()
	if len(b.tenants) != len(want) {
		return fmt.Errorf("broker: tenant rollup holds %d tenants, regroup %d", len(b.tenants), len(want))
	}
	for t, exp := range want {
		if got, ok := b.tenants[t]; !ok || math.Abs(got-exp) > 1e-6*math.Max(1, math.Abs(exp)) {
			return fmt.Errorf("broker: tenant rollup: tenant %s folded %.6g != regrouped %.6g", t, got, exp)
		}
	}
	return nil
}

// Schedulers returns the registered scheduler ids, sorted.
func (b *Broker) Schedulers() []string {
	ids := make([]string, 0, len(b.reports))
	for id := range b.reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Stats returns the accumulated traffic counters.
func (b *Broker) Stats() Stats { return b.stats }

// Reporter exposes the cumulative per-app service of a local scheduler;
// *iosched.Accounting satisfies it.
type Reporter interface {
	CostVector() map[iosched.AppID]float64
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
	Exchange(id string, vector map[iosched.AppID]float64, done func(Response, error))
	// Register performs the (re-)registration handshake.
	Register(id string, done func(error))
	// Unregister removes the scheduler's report from the broker. It
	// models out-of-band node-death detection (YARN's liveness
	// tracking), so it is not subject to message faults.
	Unregister(id string)
}

// directTransport is the perfectly reliable, instantaneous in-process
// transport: every response arrives inside the call.
type directTransport struct{ b *Broker }

// NewDirectTransport wraps a broker in the reliable transport.
func NewDirectTransport(b *Broker) Transport { return directTransport{b} }

func (d directTransport) Exchange(id string, vec map[iosched.AppID]float64, done func(Response, error)) {
	done(d.b.Exchange(id, vec), nil)
}

func (d directTransport) Register(id string, done func(error)) {
	d.b.Register(id)
	done(nil)
}

func (d directTransport) Unregister(id string) { d.b.Unregister(id) }

// RetryPolicy tunes the client's failure handling. The zero value takes
// defaults derived from the coordination period.
type RetryPolicy struct {
	// MaxRetries bounds re-attempts per round after the first failure
	// (default 3; negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry delay; each further retry doubles
	// it up to MaxBackoff (defaults period/20 and period/4).
	BaseBackoff float64
	MaxBackoff  float64
	// JitterFrac adds up to this fraction of the backoff as
	// deterministic jitter, decorrelating clients (default 0.25).
	JitterFrac float64
	// Timeout is how long the client waits for a response before
	// declaring the attempt dead (default period/4). Responses arriving
	// later are discarded.
	Timeout float64
	// DegradeAfter is how long exchanges must keep failing before the
	// client suspends the DSFQ delay rule and falls back to local
	// fairness (default one period, per the paper's staleness bound).
	DegradeAfter float64
}

func (p RetryPolicy) withDefaults(period float64) RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = period / 20
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = period / 4
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = 0.25
	}
	if p.Timeout <= 0 {
		p.Timeout = period / 4
	}
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = period
	}
	return p
}

// ClientState is the client's position in the degradation state
// machine.
type ClientState int

const (
	// StateHealthy: exchanges are succeeding; the delay rule is live.
	StateHealthy ClientState = iota
	// StateRetrying: exchanges are failing but the failure stretch is
	// still shorter than DegradeAfter; the delay rule runs on the last
	// good totals.
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
	// Period is the coordination period in seconds (default 1).
	Period float64
	// Retry tunes failure handling; zero fields take period-derived
	// defaults.
	Retry RetryPolicy
	// Shares attributes apps to tenants on the client side (nil means
	// implicit singleton tenants, i.e. flat per-app coordination). It
	// must be the view the broker aggregates against.
	Shares ShareView
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
	policy    RetryPolicy
	view      ShareView

	otherTenant map[string]float64
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
		policy:       opts.Retry.withDefaults(period),
		view:         viewOf(opts.Shares),
		otherTenant:  make(map[string]float64),
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
	r.timeout = c.eng.ScheduleDaemon(c.policy.Timeout, func() {
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
// (resp.Apps, sorted), of the vector this round reported: a retired
// app has left its tenant's total, so it must not count locally either.
func (c *Client) apply(vec map[iosched.AppID]float64, resp Response, now float64) {
	local := make(map[string]float64, len(resp.Tenants))
	for _, app := range resp.Apps {
		local[c.view.TenantOf(app)] += vec[app]
	}
	for t, total := range resp.Tenants {
		other := total - local[t]
		if other < 0 {
			other = 0
		}
		c.otherTenant[t] = other
	}
	// Prune entries the broker no longer returns (retired apps /
	// dissolved tenants) so long-lived clients don't leak entries.
	for t := range c.otherTenant {
		if _, ok := resp.Tenants[t]; !ok {
			delete(c.otherTenant, t)
		}
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
	if c.attempt < c.policy.MaxRetries {
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
// exponential from BaseBackoff, capped at MaxBackoff, plus
// deterministic jitter hashed from (client id, attempt sequence).
func (c *Client) backoff(attempt int) float64 {
	d := c.policy.BaseBackoff * math.Pow(2, float64(attempt-1))
	if d > c.policy.MaxBackoff {
		d = c.policy.MaxBackoff
	}
	return d + c.policy.JitterFrac*d*hash01(c.id, c.nextSeq)
}

func (c *Client) maybeDegrade(now float64) {
	if c.state == StateDegraded || c.failingSince < 0 {
		return
	}
	if now-c.failingSince < c.policy.DegradeAfter-1e-12 {
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
	c.otherTenant = make(map[string]float64)
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
// own remote service, bit-identical to the flat semantics.
func (c *Client) OtherService(app iosched.AppID) float64 {
	return c.otherTenant[c.view.TenantOf(app)]
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
