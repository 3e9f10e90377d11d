// Federated coordination plane: the centralized Scheduling Broker
// split into N partition brokers and one root aggregator.
//
// Each Partition owns a disjoint slice of the cluster's schedulers and
// serves their periodic exchanges exactly like the centralized broker
// — same cumulative-vector protocol, same Response shape — against its
// local state. Once per aggregation period it syncs with the root: the
// uplink carries its per-app cumulative service as delta-compressed
// integer quanta (see delta.go), the root folds the changes into
// global per-app and per-tenant totals, and the downlink reply carries
// the changed global tenant quanta back. A client's exchange response
// then merges fresh local tenant totals with the root's view of the
// rest of the cluster:
//
//	Tenants[t] = local_t + max(0, down_t − up_t) × quantum
//
// where down_t is the tenant's global quanta from the last applied
// downlink and up_t this partition's own contribution as of the uplink
// that downlink acknowledged — the subtraction removes the partition's
// double-counted share, and the clamp absorbs the sub-period window
// where local service has outrun the sync. The DSFQ delay rule only
// needs eventually-consistent remote totals, so the hierarchy's extra
// staleness (≤ 2 aggregation periods plus the round trip) widens the
// audit's fairness bound rather than breaking it; the audit's
// share-federated regime makes that bound explicit. A partition that
// never syncs — the lone partition of a one-partition plane — has no
// downlink, so the remote term is 0 and its responses are exactly the
// centralized broker's.
//
// Failure model. A partition leader can be down (SetDownOracle):
// exchanges and registrations fail with ErrUnavailable — clients
// retry, degrade to local SFQ(D), recover, exactly as under a
// centralized outage — and syncs stop. Recovery is a crash recovery:
// the leader's in-memory sync state is gone, so it resets its report
// state (the cumulative client protocol re-fills it idempotently) and
// resyncs with a snapshot uplink; the root answers with a snapshot
// downlink. A partition that has not applied a downlink for
// StaleAfter seconds fails exchanges too, so schedulers fall back to
// local fairness instead of running on arbitrarily stale totals.
package broker

import (
	"fmt"

	"ibis/internal/iosched"
)

// FedStats counts federation-plane traffic: the partition↔root sync
// messages, their decoded entries, and their actual wire bytes — the
// numbers behind the O(delta) claim.
type FedStats struct {
	// Syncs counts uplink messages applied by the root (each produces
	// one downlink reply).
	Syncs uint64
	// Snapshots counts snapshot resyncs among them.
	Snapshots uint64
	// UpEntries / DownEntries are decoded (key, value) changes carried.
	UpEntries, DownEntries uint64
	// UpBytes / DownBytes are encoded message bytes on the wire.
	UpBytes, DownBytes uint64
	// SeqGaps counts uplinks rejected for a sequence gap (the sender
	// repairs with a snapshot on its next period).
	SeqGaps uint64
}

// Bytes returns total federation-plane wire volume.
func (s FedStats) Bytes() uint64 { return s.UpBytes + s.DownBytes }

// Merge folds other into s.
func (s *FedStats) Merge(o FedStats) {
	s.Syncs += o.Syncs
	s.Snapshots += o.Snapshots
	s.UpEntries += o.UpEntries
	s.DownEntries += o.DownEntries
	s.UpBytes += o.UpBytes
	s.DownBytes += o.DownBytes
	s.SeqGaps += o.SeqGaps
}

// Partition is one partition broker: a local Broker for its slice of
// schedulers plus the sync state of its link to the root.
type Partition struct {
	id      int
	b       *Broker
	quantum float64

	// StaleAfter bounds downlink staleness: past it, exchanges fail
	// with ErrUnavailable until a sync lands (0 disables).
	staleAfter float64
	down       func(now float64) bool // leader-outage oracle; nil = never

	upEnc DeltaEnc
	upCur map[string]int64 // scratch for BuildUplink

	downDec     DeltaDec
	downTenantQ map[string]int64 // tenant → global quanta, last applied downlink
	// upTenantQ is this partition's per-tenant quanta as of the uplink
	// the last downlink acknowledged; pendingUpTenantQ is the same for
	// the uplink still in flight (promoted when its downlink arrives).
	upTenantQ        map[string]int64
	pendingUpTenantQ map[string]int64

	wasDown      bool
	needSnapshot bool
	synced       bool
	lastDownAt   float64
}

// NewPartition creates partition p's broker. shares attributes apps to
// tenants (nil: implicit singletons); staleAfter bounds tolerated
// downlink staleness in seconds (the cluster wires K × aggregation
// period).
func NewPartition(id int, shares ShareView, staleAfter float64) *Partition {
	b := New()
	b.view = viewOf(shares)
	return &Partition{
		id:         id,
		b:          b,
		quantum:    DefaultQuantum,
		staleAfter: staleAfter,
		// The first uplink is an explicit snapshot: a replaced leader
		// must overwrite whatever mirror the root still holds for this
		// partition id.
		needSnapshot: true,
		upCur:        make(map[string]int64),
		downTenantQ:  make(map[string]int64),
		upTenantQ:    make(map[string]int64),
	}
}

// Broker returns the partition's local broker (its exchange stats are
// the per-partition slice of the centralized-equivalent traffic).
func (p *Partition) Broker() *Broker { return p.b }

// ID returns the partition index.
func (p *Partition) ID() int { return p.id }

// SetDownOracle installs the leader-outage oracle (nil = always up).
func (p *Partition) SetDownOracle(fn func(now float64) bool) { p.down = fn }

// Down reports whether the leader is down at time now.
func (p *Partition) Down(now float64) bool { return p.down != nil && p.down(now) }

// Stale reports whether the partition's root view is older than the
// staleness budget allows.
func (p *Partition) Stale(now float64) bool {
	return p.staleAfter > 0 && p.synced && now-p.lastDownAt > p.staleAfter
}

// Exchange serves one scheduler's coordination round against the local
// broker, then widens the tenant aggregates to the cluster-wide totals
// using the root's last downlink. It fails with ErrUnavailable while
// the leader is down or its root view too stale — the client-side
// retry/degrade machinery handles both exactly like a centralized
// outage.
func (p *Partition) Exchange(scheduler string, vector map[iosched.AppID]float64, now float64) (Response, error) {
	if p.Down(now) {
		p.wasDown = true
		return Response{}, ErrUnavailable
	}
	p.recoverIfNeeded(now)
	if p.Stale(now) {
		return Response{}, ErrUnavailable
	}
	resp := p.b.Exchange(scheduler, vector)
	for t := range resp.Tenants {
		resp.Tenants[t] += p.remoteTenant(t)
	}
	return resp, nil
}

// Register is the registration handshake, gated like Exchange.
func (p *Partition) Register(scheduler string, now float64) error {
	if p.Down(now) {
		p.wasDown = true
		return ErrUnavailable
	}
	p.recoverIfNeeded(now)
	p.b.Register(scheduler)
	return nil
}

// Unregister removes a scheduler (out-of-band death detection, so not
// gated on leader health).
func (p *Partition) Unregister(scheduler string) { p.b.Unregister(scheduler) }

// remoteTenant is the service tenant t received outside this partition,
// per the last sync round trip: global minus own contribution, clamped
// — local service may have outrun the sync by a sub-period amount.
func (p *Partition) remoteTenant(t string) float64 {
	r := p.downTenantQ[t] - p.upTenantQ[t]
	if r <= 0 {
		return 0
	}
	return float64(r) * p.quantum
}

// recoverIfNeeded performs crash recovery on the first contact after
// an outage window — before the partition serves anything, so that
// exchanges arriving between recovery and the next uplink rebuild the
// reports instead of being wiped by a lazily-timed reset.
func (p *Partition) recoverIfNeeded(now float64) {
	if p.wasDown {
		p.crashRecover(now)
	}
}

// BuildUplink assembles the next sync message at time now, or returns
// ok=false while the leader is down. The first call after an outage
// performs crash recovery: report and sync state are reset (the
// cumulative client protocol re-fills the reports idempotently) and
// the message is a snapshot from a fresh encoder.
func (p *Partition) BuildUplink(now float64) (msg []byte, entries int, ok bool) {
	if p.Down(now) {
		p.wasDown = true
		return nil, 0, false
	}
	p.recoverIfNeeded(now)
	for k := range p.upCur {
		delete(p.upCur, k)
	}
	for app, total := range p.b.totals {
		p.upCur[string(app)] = int64(total / p.quantum)
	}
	snapshot := p.needSnapshot
	msg, entries = p.upEnc.Encode(p.upCur, snapshot)
	p.needSnapshot = false
	// Remember this uplink's per-tenant contribution; it becomes the
	// subtraction base when the matching downlink arrives.
	pend := make(map[string]int64, len(p.upTenantQ))
	for app, q := range p.upCur {
		pend[p.b.view.TenantOf(iosched.AppID(app))] += q
	}
	p.pendingUpTenantQ = pend
	return msg, entries, true
}

// crashRecover models the leader process coming back empty: sync state
// and report vectors are gone (retirement tombstones survive — they
// are control-plane state from the resource manager, not leader
// memory), and the next uplink must be a snapshot. Client exchanges
// rebuild the reports cumulatively; until the rebuild and the next
// sync land, the partition's totals are partial, which is exactly the
// window the audit's degradation grace covers.
func (p *Partition) crashRecover(now float64) {
	p.wasDown = false
	p.needSnapshot = true
	p.b.ResetReports()
	p.upEnc = DeltaEnc{}
	p.downDec = DeltaDec{}
	p.downTenantQ = make(map[string]int64)
	p.upTenantQ = make(map[string]int64)
	p.pendingUpTenantQ = nil
	p.synced = false
	p.lastDownAt = now
}

// ApplyDownlink folds one root reply into the partition's remote view.
func (p *Partition) ApplyDownlink(msg []byte, now float64) error {
	_, _, err := p.downDec.Decode(msg, func(tenant string, _, new int64) {
		if new == 0 {
			delete(p.downTenantQ, tenant)
			return
		}
		p.downTenantQ[tenant] = new
	})
	if err != nil {
		// A gap here means the root answered from state we never sent
		// (possible only around crashes); force a snapshot round.
		p.needSnapshot = true
		return err
	}
	if p.pendingUpTenantQ != nil {
		p.upTenantQ = p.pendingUpTenantQ
		p.pendingUpTenantQ = nil
	}
	p.synced = true
	p.lastDownAt = now
	return nil
}

// Aggregator is the root of the federation: per-partition mirrors of
// uplinked app quanta, global per-app and per-tenant totals maintained
// incrementally in exact int64 arithmetic, and one downlink encoder
// per partition.
type Aggregator struct {
	view    ShareView
	epoch   uint64 // the view epoch globalTenant is grouped at
	quantum float64

	parts map[int]*aggPart

	globalApp    map[string]int64
	globalTenant map[string]int64

	probe func()
	stats FedStats
}

type aggPart struct {
	dec DeltaDec
	enc DeltaEnc
	// tenantQ regroups the partition's mirror by tenant — the hosted
	// set its downlink is scoped to. A tenant whose apps never crossed
	// one quantum in this partition is not hosted: its sub-quantum local
	// service needs no cross-partition compensation.
	tenantQ map[string]int64
}

// NewAggregator creates the root. shares must attribute apps to
// tenants identically to every partition's view (the cluster passes
// the same tree to both; nil: implicit singletons).
func NewAggregator(shares ShareView) *Aggregator {
	return &Aggregator{
		view:         viewOf(shares),
		quantum:      DefaultQuantum,
		parts:        make(map[int]*aggPart),
		globalApp:    make(map[string]int64),
		globalTenant: make(map[string]int64),
	}
}

// SetProbe installs a callback fired after every applied uplink (the
// audit wires its conservation check here).
func (a *Aggregator) SetProbe(fn func()) { a.probe = fn }

func (a *Aggregator) part(p int) *aggPart {
	ap := a.parts[p]
	if ap == nil {
		ap = &aggPart{tenantQ: make(map[string]int64)}
		a.parts[p] = ap
	}
	return ap
}

func (a *Aggregator) tenant(app string) string { return a.view.TenantOf(iosched.AppID(app)) }

// refreshEpoch rebuilds the tenant totals from the app totals when the
// share tree moved (rare: epochs move on reweights and bindings, not
// on traffic).
func (a *Aggregator) refreshEpoch() {
	if a.view.Epoch() == a.epoch {
		return
	}
	a.epoch = a.view.Epoch()
	a.globalTenant = make(map[string]int64)
	for app, q := range a.globalApp {
		a.globalTenant[a.tenant(app)] += q
	}
	for _, ap := range a.parts {
		ap.tenantQ = make(map[string]int64)
		for app, q := range ap.dec.State() {
			ap.tenantQ[a.tenant(app)] += q
		}
	}
}

// HandleUplink applies one partition sync message and returns the
// downlink reply: the changed global quanta of the tenants this
// partition hosts — not the whole cluster's tenant table, which would
// make the downlink O(tenants) regardless of locality (full state, as
// a snapshot, when the uplink was one — the partition's downlink
// decoder is fresh too). A sequence-gap uplink is rejected with
// ErrSeqGap and no reply; the sender snapshots next period.
func (a *Aggregator) HandleUplink(p int, msg []byte) (down []byte, err error) {
	a.refreshEpoch()
	ap := a.part(p)
	snapshot, entries, err := ap.dec.Decode(msg, func(app string, old, new int64) {
		a.bump(app, new-old)
		t := a.tenant(app)
		if v := ap.tenantQ[t] + new - old; v == 0 {
			delete(ap.tenantQ, t)
		} else {
			ap.tenantQ[t] = v
		}
	})
	if err != nil {
		a.stats.SeqGaps++
		return nil, err
	}
	a.stats.Syncs++
	if snapshot {
		a.stats.Snapshots++
		ap.enc = DeltaEnc{}
	}
	a.stats.UpEntries += uint64(entries)
	a.stats.UpBytes += uint64(len(msg))
	downCur := make(map[string]int64, len(ap.tenantQ))
	for t := range ap.tenantQ {
		downCur[t] = a.globalTenant[t]
	}
	down, n := ap.enc.Encode(downCur, snapshot)
	a.stats.DownEntries += uint64(n)
	a.stats.DownBytes += uint64(len(down))
	if a.probe != nil {
		a.probe()
	}
	return down, nil
}

func (a *Aggregator) bump(app string, delta int64) {
	if delta == 0 {
		return
	}
	if v := a.globalApp[app] + delta; v == 0 {
		delete(a.globalApp, app)
	} else {
		a.globalApp[app] = v
	}
	t := a.tenant(app)
	if v := a.globalTenant[t] + delta; v == 0 {
		delete(a.globalTenant, t)
	} else {
		a.globalTenant[t] = v
	}
}

// TotalQuanta returns the global cumulative quanta of one app.
func (a *Aggregator) TotalQuanta(app iosched.AppID) int64 { return a.globalApp[string(app)] }

// TenantQuanta returns the global cumulative quanta of one tenant.
func (a *Aggregator) TenantQuanta(tenant string) int64 { return a.globalTenant[tenant] }

// Stats returns the accumulated federation traffic counters.
func (a *Aggregator) Stats() FedStats { return a.stats }

// CheckConservation verifies the root's books in exact arithmetic: the
// per-app sum of the partition mirrors must equal the global app
// totals, and the per-tenant regrouping of the app totals must equal
// the global tenant totals. It returns the first discrepancy found.
func (a *Aggregator) CheckConservation() error {
	sums := make(map[string]int64, len(a.globalApp))
	for _, ap := range a.parts {
		for app, q := range ap.dec.State() {
			sums[app] += q
		}
	}
	for app, q := range a.globalApp {
		if sums[app] != q {
			return fmt.Errorf("broker: federation conservation: app %s mirrors sum %d != global %d", app, sums[app], q)
		}
	}
	for app, q := range sums {
		if a.globalApp[app] != q {
			return fmt.Errorf("broker: federation conservation: app %s mirrors sum %d != global %d", app, q, a.globalApp[app])
		}
	}
	tenants := make(map[string]int64, len(a.globalTenant))
	for app, q := range a.globalApp {
		tenants[a.tenant(app)] += q
	}
	for t, q := range a.globalTenant {
		if tenants[t] != q {
			return fmt.Errorf("broker: federation conservation: tenant %s regrouped %d != global %d", t, tenants[t], q)
		}
	}
	for t, q := range tenants {
		if a.globalTenant[t] != q {
			return fmt.Errorf("broker: federation conservation: tenant %s regrouped %d != global %d", t, q, a.globalTenant[t])
		}
	}
	for p, ap := range a.parts {
		regroup := make(map[string]int64, len(ap.tenantQ))
		for app, q := range ap.dec.State() {
			regroup[a.tenant(app)] += q
		}
		for t, q := range regroup {
			if ap.tenantQ[t] != q {
				return fmt.Errorf("broker: federation conservation: partition %d tenant %s hosted %d != regrouped %d", p, t, ap.tenantQ[t], q)
			}
		}
		for t, q := range ap.tenantQ {
			if regroup[t] != q {
				return fmt.Errorf("broker: federation conservation: partition %d tenant %s hosted %d != regrouped %d", p, t, q, regroup[t])
			}
		}
	}
	return nil
}
