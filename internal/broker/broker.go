// Package broker implements IBIS's distributed I/O scheduling
// coordination (Section 5 of the paper): a centralized Scheduling Broker
// that aggregates each local scheduler's per-application service vector
// and returns the cluster-wide totals, plus the per-scheduler client
// that feeds those totals into the DSFQ delay rule of the local SFQ(D2)
// scheduler.
//
// In the Hadoop prototype the broker lives inside the YARN Resource
// Manager and its messages are piggybacked on the existing Node Manager
// heartbeats; here the exchange is modeled as a periodic call whose
// message sizes are accounted so the coordination overhead claims remain
// measurable.
//
// The exchange path is failure-aware: a Transport carries the round
// trips and may fail (broker outage, message loss) or delay responses.
// The Client reacts with bounded retries under exponential backoff, and
// when exchanges keep failing for at least one coordination period it
// degrades gracefully — suspending the DSFQ delay rule so the local
// scheduler falls back to pure local SFQ(D) fairness — then reconciles
// on recovery via the idempotent cumulative vectors. Scheduler restarts
// wipe the client's in-memory view and force an explicit re-register
// handshake before exchanges resume.
package broker

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/sim"
)

// Transport errors. ErrUnavailable means the broker could not be
// reached at all (outage or partition); ErrLost means a message was
// dropped in flight — the broker may or may not have applied the
// report, which the cumulative protocol makes safe to retry; ErrTimeout
// is synthesized by the client when a response outlives the retry
// policy's timeout.
var (
	ErrUnavailable = errors.New("broker: unavailable")
	ErrLost        = errors.New("broker: message lost")
	ErrTimeout     = errors.New("broker: exchange timed out")
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

// Broker is the centralized aggregation point. It keeps, per reporting
// scheduler, the last cumulative service vector, and maintains the
// per-application totals incrementally — the state is "simply a vector
// of total I/O service amount for all the applications in the system".
type Broker struct {
	reports map[string]map[iosched.AppID]float64
	totals  map[iosched.AppID]float64
	retired map[iosched.AppID]bool
	// finals are tombstones: the cluster-wide total each retired app
	// had at retirement. They keep the service observable (Total)
	// after cleanup without participating in exchanges.
	finals map[iosched.AppID]float64
	// retireSnaps hold, per retired app, the per-scheduler entries
	// Retire scrubbed, so Revive can restore exact continuity instead
	// of rebuilding the total piecemeal from future exchanges.
	retireSnaps map[iosched.AppID]map[string]float64
	shares      ShareView
	stats       Stats
	probe       Probe
}

// ShareView is the slice of the share tree the coordination plane
// needs: tenant attribution for aggregation and the epoch to piggyback
// on responses. *shares.Tree implements it. A nil view treats every
// app as its own implicit singleton tenant, which reproduces the flat
// per-app coordination exactly.
type ShareView interface {
	TenantOf(app iosched.AppID) string
	Epoch() uint64
}

// SetShares attaches the share tree the broker aggregates tenants
// against (nil reverts to implicit singleton tenants).
func (b *Broker) SetShares(v ShareView) { b.shares = v }

func (b *Broker) tenantOf(app iosched.AppID) string {
	if b.shares != nil {
		return b.shares.TenantOf(app)
	}
	return implicitTenant(app)
}

// implicitTenant mirrors shares.ImplicitTenant without importing the
// shares package (which would be legal, but the coordination plane
// should not depend on the control plane's full API for one string).
func implicitTenant(app iosched.AppID) string { return "~" + string(app) }

// Response is one coordination response: the cluster-wide totals for
// the apps the scheduler reported, plus tenant-level aggregates and
// the share-tree epoch they were computed at.
type Response struct {
	// Apps maps each reported (non-retired) app to its cluster-wide
	// cumulative service.
	Apps map[iosched.AppID]float64
	// Tenants maps each tenant owning a reported app to the
	// cluster-wide cumulative service across ALL of that tenant's apps
	// — including apps this scheduler does not serve. This is the
	// aggregate the tenant-level DSFQ delay rule charges against, so
	// proportionality is enforced between tenants, not just between
	// the apps a single node happens to see.
	Tenants map[string]float64
	// Epoch is the share-tree version the tenant attribution was
	// resolved at. Clients invalidate cached app→tenant bindings when
	// it moves.
	Epoch uint64
}

// Probe observes each completed exchange: the reporting scheduler's id
// plus the broker itself, for invariant auditing (e.g. service
// conservation: the per-app sum of the latest local vectors must equal
// the global totals).
type Probe func(scheduler string, b *Broker)

// SetProbe installs the exchange probe (nil disables).
func (b *Broker) SetProbe(p Probe) { b.probe = p }

// New creates an empty broker.
func New() *Broker {
	return &Broker{
		reports:     make(map[string]map[iosched.AppID]float64),
		totals:      make(map[iosched.AppID]float64),
		retired:     make(map[iosched.AppID]bool),
		finals:      make(map[iosched.AppID]float64),
		retireSnaps: make(map[iosched.AppID]map[string]float64),
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
}

// Exchange is one coordination round trip for the named scheduler: it
// reports its cumulative per-app service (cost units) and receives the
// cluster-wide totals for exactly the apps it reported — the response
// "is bounded by the number of applications that the scheduler
// currently serves". The response is a fresh map each call; mutating it
// (or the request vector, afterwards) cannot corrupt broker state.
// Retired apps are skipped in both directions: their pruned state must
// not be resurrected by the stale entries local accounting still
// carries.
func (b *Broker) Exchange(scheduler string, vector map[iosched.AppID]float64) Response {
	prev := b.reports[scheduler]
	if prev == nil {
		prev = make(map[iosched.AppID]float64)
		b.reports[scheduler] = prev
	}
	up := 0
	for app, cum := range vector {
		if b.retired[app] {
			continue
		}
		b.totals[app] += cum - prev[app]
		prev[app] = cum
		up++
	}
	resp := Response{Apps: make(map[iosched.AppID]float64, up)}
	for app := range vector {
		if b.retired[app] {
			continue
		}
		resp.Apps[app] = b.totals[app]
	}
	// Tenant aggregates: for every tenant owning a reported app, sum
	// the totals of all that tenant's apps. The accumulation iterates
	// apps in sorted order so float rounding is deterministic across
	// runs regardless of map layout.
	need := make(map[string]bool, len(resp.Apps))
	for app := range resp.Apps {
		need[b.tenantOf(app)] = true
	}
	resp.Tenants = make(map[string]float64, len(need))
	for _, app := range b.Apps() {
		if t := b.tenantOf(app); need[t] {
			resp.Tenants[t] += b.totals[app]
		}
	}
	if b.shares != nil {
		resp.Epoch = b.shares.Epoch()
	}
	b.stats.Exchanges++
	b.stats.EntriesUp += uint64(up)
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

// TenantTotals aggregates the live per-app totals by tenant,
// accumulating in sorted-app order for deterministic rounding. Used by
// the audit layer's cluster-wide hierarchical invariant.
func (b *Broker) TenantTotals() map[string]float64 {
	out := make(map[string]float64)
	for _, app := range b.Apps() {
		out[b.tenantOf(app)] += b.totals[app]
	}
	return out
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

// Endpoint is what every coordination transport provides: out-of-band
// unregistration. The exchange protocol a client speaks is found by
// type assertion — AsyncTransport when the endpoint implements it,
// otherwise Transport.
type Endpoint interface {
	// Unregister removes the scheduler's report from the broker. It
	// models out-of-band node-death detection (YARN's liveness
	// tracking), so it is not subject to message faults.
	Unregister(id string)
}

// Transport carries the coordination round trips synchronously.
// Implementations may fail or delay them; the direct in-process
// transport never does.
type Transport interface {
	Endpoint
	// Exchange performs one report/response round trip. rtt is the
	// virtual-time delay until the response reaches the client (0 =
	// instantaneous, applied synchronously). On error no response is
	// delivered; the broker may or may not have applied the report
	// (response loss) — retrying is safe because vectors are
	// cumulative.
	Exchange(id string, vector map[iosched.AppID]float64) (resp Response, rtt float64, err error)
	// Register performs the (re-)registration handshake.
	Register(id string) (rtt float64, err error)
}

// AsyncTransport is the message-passing variant of Transport used when
// the broker lives on a different simulation shard than the client: the
// request travels as an inter-shard message, the broker processes it on
// its own shard, and the response travels back the same way. done is
// invoked on the client's shard when the response arrives — possibly
// never (request or response lost), which the client covers with its
// own timeout event. A client whose endpoint implements AsyncTransport
// uses the async protocol exclusively.
type AsyncTransport interface {
	Endpoint
	// ExchangeAsync sends the vector toward the broker; done fires when
	// (and if) the response arrives. A non-nil err reports a delivered
	// failure (e.g. broker down); a lost message simply never calls
	// done.
	ExchangeAsync(id string, vector map[iosched.AppID]float64, done func(resp Response, err error))
	// RegisterAsync is the async registration handshake.
	RegisterAsync(id string, done func(err error))
}

// directTransport is the perfectly reliable, instantaneous in-process
// transport the pre-fault broker modeled.
type directTransport struct{ b *Broker }

// NewDirectTransport wraps a broker in the reliable transport.
func NewDirectTransport(b *Broker) Transport { return directTransport{b} }

func (d directTransport) Exchange(id string, vec map[iosched.AppID]float64) (Response, float64, error) {
	return d.b.Exchange(id, vec), 0, nil
}

func (d directTransport) Register(id string) (float64, error) { d.b.Register(id); return 0, nil }

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

// ClientOptions configure NewClientWithOptions.
type ClientOptions struct {
	// Transport carries the exchanges: a Transport or an
	// AsyncTransport. Nil — or an Endpoint that is neither — means the
	// client never coordinates (the paper's "No Sync").
	Transport Endpoint
	// Period is the coordination period in seconds (default 1).
	Period float64
	// Retry tunes failure handling; zero fields take period-derived
	// defaults.
	Retry RetryPolicy
	// Shares attributes apps to tenants on the client side (nil means
	// implicit singleton tenants, i.e. flat per-app coordination).
	Shares ShareView
}

// Client performs the periodic exchange for one local scheduler and
// implements iosched.Coordinator: OtherService(app) returns the service
// the app's *tenant* has received on all other nodes, per the broker's
// latest applied response. With only implicit singleton tenants this is
// exactly the app's own remote service (the flat pre-tree semantics);
// with declared tenants the DSFQ delay charges the whole tenant's
// remote service, enforcing tenant-level proportionality. A Client
// with a nil transport never coordinates (No Sync).
type Client struct {
	id string
	// link is the endpoint; exactly one of transport and async is its
	// exchange protocol. All three are nil for a No Sync client.
	link      Endpoint
	transport Transport
	async     AsyncTransport
	reporter  Reporter
	eng       *sim.Engine
	period    float64
	policy    RetryPolicy
	shares    ShareView

	otherTenant map[string]float64
	// tenantCache memoizes app→tenant attribution so the per-arrival
	// OtherService lookup stays allocation-free; it is invalidated
	// whenever a response carries a newer share-tree epoch.
	tenantCache map[iosched.AppID]string
	shareEpoch  uint64
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

// NewClient wires a scheduler's accounting into the broker over the
// reliable direct transport with the given coordination period
// (seconds; the paper uses 1 s, piggybacked on heartbeats). The
// periodic exchange is a daemon event: it does not keep the simulation
// alive once the workload drains.
func NewClient(eng *sim.Engine, b *Broker, id string, reporter Reporter, period float64) *Client {
	var tr Transport
	if b != nil {
		tr = directTransport{b}
	}
	return NewClientWithOptions(eng, id, reporter, ClientOptions{Transport: tr, Period: period})
}

// NewClientWithOptions is NewClient with an explicit transport and
// retry policy.
func NewClientWithOptions(eng *sim.Engine, id string, reporter Reporter, opts ClientOptions) *Client {
	period := opts.Period
	if period <= 0 {
		period = 1
	}
	c := &Client{
		id:           id,
		reporter:     reporter,
		eng:          eng,
		period:       period,
		policy:       opts.Retry.withDefaults(period),
		shares:       opts.Shares,
		otherTenant:  make(map[string]float64),
		tenantCache:  make(map[iosched.AppID]string),
		failingSince: -1,
		nextSeq:      1,
	}
	c.async, _ = opts.Transport.(AsyncTransport)
	if c.async == nil {
		c.transport, _ = opts.Transport.(Transport)
	}
	if c.async != nil || c.transport != nil {
		c.link = opts.Transport
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
	if c.link == nil || c.detached {
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
	if c.link == nil || c.detached || c.inRound {
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
	if c.async != nil {
		c.sendAttemptAsync()
		return
	}
	now := c.eng.Now()
	seq := c.nextSeq
	c.nextSeq++
	c.health.Attempts++
	vec := c.reporter.CostVector()
	resp, rtt, err := c.transport.Exchange(c.id, vec)
	if err != nil {
		c.fail(now)
		return
	}
	if rtt <= 0 {
		c.appliedHi = seq
		c.apply(vec, resp, now)
		return
	}
	epoch := c.epoch
	if rtt > c.policy.Timeout {
		// The response will arrive after the client gave up on it:
		// count the timeout when the policy says so, and the stale
		// drop when the late response lands.
		c.health.Timeouts++
		c.eng.ScheduleDaemon(rtt, func() {
			if c.epoch == epoch {
				c.health.StaleDrops++
			}
		})
		c.eng.ScheduleDaemon(c.policy.Timeout, func() {
			if c.epoch == epoch {
				c.fail(c.eng.Now())
			}
		})
		return
	}
	c.eng.ScheduleDaemon(rtt, func() {
		if c.epoch != epoch || seq <= c.appliedHi {
			c.health.StaleDrops++
			return
		}
		c.appliedHi = seq
		c.apply(vec, resp, c.eng.Now())
	})
}

// sendAttemptAsync is the exchange attempt over an AsyncTransport. The
// response may arrive at any later event, or never; a local timeout
// daemon bounds the wait. The delivered/timedOut flags arbitrate the
// race between the two continuations — both run on the client's shard,
// so plain variables suffice.
func (c *Client) sendAttemptAsync() {
	seq := c.nextSeq
	c.nextSeq++
	c.health.Attempts++
	vec := c.reporter.CostVector()
	epoch := c.epoch
	delivered, timedOut := false, false
	c.eng.ScheduleDaemon(c.policy.Timeout, func() {
		if delivered || c.epoch != epoch {
			return
		}
		timedOut = true
		c.health.Timeouts++
		c.fail(c.eng.Now())
	})
	c.async.ExchangeAsync(c.id, vec, func(resp Response, err error) {
		if c.epoch != epoch || timedOut || seq <= c.appliedHi {
			c.health.StaleDrops++
			return
		}
		delivered = true
		if err != nil {
			c.fail(c.eng.Now())
			return
		}
		c.appliedHi = seq
		c.apply(vec, resp, c.eng.Now())
	})
}

// sendRegister performs the explicit post-restart handshake; on success
// it chains straight into a normal exchange to re-seed the client's
// remote-service view.
func (c *Client) sendRegister() {
	if c.async != nil {
		c.sendRegisterAsync()
		return
	}
	now := c.eng.Now()
	c.health.Attempts++
	rtt, err := c.transport.Register(c.id)
	if err != nil {
		c.fail(now)
		return
	}
	epoch := c.epoch
	finish := func() {
		if c.epoch != epoch {
			c.health.StaleDrops++
			return
		}
		c.needRegister = false
		c.health.ReRegisters++
		c.attempt = 0
		c.sendAttempt()
	}
	if rtt <= 0 {
		finish()
		return
	}
	if rtt > c.policy.Timeout {
		c.health.Timeouts++
		c.eng.ScheduleDaemon(rtt, func() {
			if c.epoch == epoch {
				c.health.StaleDrops++
			}
		})
		c.eng.ScheduleDaemon(c.policy.Timeout, func() {
			if c.epoch == epoch {
				c.fail(c.eng.Now())
			}
		})
		return
	}
	c.eng.ScheduleDaemon(rtt, finish)
}

// sendRegisterAsync is the registration handshake over an
// AsyncTransport, mirroring sendAttemptAsync's timeout arbitration.
func (c *Client) sendRegisterAsync() {
	c.health.Attempts++
	epoch := c.epoch
	delivered, timedOut := false, false
	c.eng.ScheduleDaemon(c.policy.Timeout, func() {
		if delivered || c.epoch != epoch {
			return
		}
		timedOut = true
		c.health.Timeouts++
		c.fail(c.eng.Now())
	})
	c.async.RegisterAsync(c.id, func(err error) {
		if c.epoch != epoch || timedOut {
			c.health.StaleDrops++
			return
		}
		delivered = true
		if err != nil {
			c.fail(c.eng.Now())
			return
		}
		c.needRegister = false
		c.health.ReRegisters++
		c.attempt = 0
		c.sendAttempt()
	})
}

// apply folds a successful response into the client's remote-service
// view and completes the round. The view is tenant-level: for each
// tenant in the response, remote service = cluster-wide tenant total
// minus the local per-tenant sum of the vector this round reported.
func (c *Client) apply(vec map[iosched.AppID]float64, resp Response, now float64) {
	if resp.Epoch != c.shareEpoch {
		// Bindings may have moved between tenants; recompute
		// attribution lazily from the shares view.
		c.shareEpoch = resp.Epoch
		for app := range c.tenantCache {
			delete(c.tenantCache, app)
		}
	}
	// Local per-tenant sums, accumulated in sorted-app order so float
	// rounding stays deterministic.
	apps := make([]iosched.AppID, 0, len(vec))
	for app := range vec {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	local := make(map[string]float64, len(resp.Tenants))
	for _, app := range apps {
		local[c.tenant(app)] += vec[app]
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

// tenant memoizes the app→tenant attribution.
func (c *Client) tenant(app iosched.AppID) string {
	if t, ok := c.tenantCache[app]; ok {
		return t
	}
	var t string
	if c.shares != nil {
		t = c.shares.TenantOf(app)
	} else {
		t = implicitTenant(app)
	}
	c.tenantCache[app] = t
	return t
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
	if c.detached || c.link == nil {
		return
	}
	now := c.eng.Now()
	c.health.Restarts++
	c.epoch++
	c.eng.Cancel(c.retryEv)
	c.otherTenant = make(map[string]float64)
	c.tenantCache = make(map[iosched.AppID]string)
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
	if c.link != nil {
		c.link.Unregister(c.id)
	}
}

// Detached reports whether the client has been permanently detached.
func (c *Client) Detached() bool { return c.detached }

// OtherService implements iosched.Coordinator: the remote service of
// the app's tenant. For implicit singleton tenants this is the app's
// own remote service, bit-identical to the flat semantics.
func (c *Client) OtherService(app iosched.AppID) float64 {
	return c.otherTenant[c.tenant(app)]
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
