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
	"slices"

	"ibis/internal/iosched"
	"ibis/internal/shares"
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
	upCur []int64 // BuildUplink's quanta by AppIdx

	downDec DeltaDec
	// The per-tenant books are indexed by shares.TenantIdx.
	// downTenantQ is each tenant's global quanta as of the last applied
	// downlink. upTenantQ is this partition's per-tenant quanta as of
	// the uplink the last downlink acknowledged; pendingUpTenantQ is the
	// same for the uplink still in flight (promoted when its downlink
	// arrives).
	downTenantQ      []int64
	upTenantQ        []int64
	pendingUpTenantQ []int64

	wasDown      bool
	needSnapshot bool
	synced       bool
	lastDownAt   float64
}

// NewPartition creates partition p's broker. tree attributes apps to
// tenants (nil: a fresh tree, so every app is its implicit singleton
// tenant); staleAfter bounds tolerated downlink staleness in seconds
// (the cluster wires K × aggregation period).
func NewPartition(id int, tree *shares.Tree, staleAfter float64) *Partition {
	b := New()
	b.view = viewOf(tree)
	return &Partition{
		id:         id,
		b:          b,
		quantum:    DefaultQuantum,
		staleAfter: staleAfter,
		// The first uplink is an explicit snapshot: a replaced leader
		// must overwrite whatever mirror the root still holds for this
		// partition id.
		needSnapshot: true,
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
func (p *Partition) Exchange(scheduler string, vector []iosched.AppCost, now float64) (Response, error) {
	if p.Down(now) {
		p.wasDown = true
		return Response{}, ErrUnavailable
	}
	p.recoverIfNeeded(now)
	if p.Stale(now) {
		return Response{}, ErrUnavailable
	}
	return p.b.exchange(scheduler, vector, p.remoteTenant), nil
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
func (p *Partition) remoteTenant(t shares.TenantIdx) float64 {
	r := at(p.downTenantQ, int(t)) - at(p.upTenantQ, int(t))
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
	view := p.b.view
	cur := zeroed(p.upCur, len(p.b.apps))
	// Remember this uplink's per-tenant contribution; it becomes the
	// subtraction base when the matching downlink arrives.
	pend := make([]int64, view.NumTenants())
	for ai, ab := range p.b.apps {
		if ab.live {
			cur[ai] = int64(ab.total / p.quantum)
			pend[view.TenantAt(iosched.AppIdx(ai))] += cur[ai]
		}
	}
	p.upCur = cur
	snapshot := p.needSnapshot
	msg, entries = p.upEnc.Encode(cur, p.appName, snapshot)
	p.needSnapshot = false
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
	clear(p.downTenantQ)
	clear(p.upTenantQ)
	p.pendingUpTenantQ = nil
	p.synced = false
	p.lastDownAt = now
}

// ApplyDownlink folds one root reply into the partition's remote view.
func (p *Partition) ApplyDownlink(msg []byte, now float64) error {
	_, _, err := p.downDec.Decode(msg, p.resolveTenant, func(t int32, _, new int64) {
		*slot(&p.downTenantQ, int(t)) = new
	})
	if err != nil {
		// A gap here means the root answered from state we never sent
		// (possible only around crashes); force a snapshot round.
		p.needSnapshot = true
		return err
	}
	if p.pendingUpTenantQ != nil {
		p.upTenantQ, p.pendingUpTenantQ = p.pendingUpTenantQ, nil
	}
	p.synced = true
	p.lastDownAt = now
	return nil
}

func (p *Partition) resolveTenant(name string) int32 { return int32(p.b.view.TenantIndex(name)) }

func (p *Partition) appName(ai int32) string { return string(p.b.view.AppName(iosched.AppIdx(ai))) }

// Aggregator is the root of the federation: per-partition mirrors of
// uplinked app quanta, global per-app and per-tenant totals maintained
// incrementally in exact int64 arithmetic, and one downlink encoder
// per partition. Its books are slices indexed by the tree's AppIdx and
// TenantIdx; names appear only on the wire and in error messages.
type Aggregator struct {
	view    *shares.Tree
	epoch   uint64 // the view epoch the tenant books are grouped at
	quantum float64

	parts []*aggPart // by partition id

	globalApp    []int64 // by AppIdx
	globalTenant []int64 // by TenantIdx

	// downCur is HandleUplink's downlink state; sumApp and sumTenant are
	// CheckConservation's regroupings. All are reused.
	downCur, sumApp, sumTenant []int64

	probe func()
	stats FedStats
}

type aggPart struct {
	dec DeltaDec // keys are AppIdx
	enc DeltaEnc
	// tenantQ regroups the partition's mirror by tenant — the hosted
	// set its downlink is scoped to is its nonzero entries. A tenant
	// whose apps never crossed one quantum in this partition is not
	// hosted: its sub-quantum local service needs no cross-partition
	// compensation.
	tenantQ []int64
}

// NewAggregator creates the root. tree must attribute apps to tenants
// identically to every partition's view (the cluster passes the same
// tree to both; nil: a fresh tree of implicit singletons).
func NewAggregator(tree *shares.Tree) *Aggregator {
	return &Aggregator{view: viewOf(tree), quantum: DefaultQuantum}
}

// SetProbe installs a callback fired after every applied uplink (the
// audit wires its conservation check here).
func (a *Aggregator) SetProbe(fn func()) { a.probe = fn }

func (a *Aggregator) part(p int) *aggPart {
	for len(a.parts) <= p {
		a.parts = append(a.parts, &aggPart{})
	}
	return a.parts[p]
}

func (a *Aggregator) resolveApp(name string) int32 {
	return int32(a.view.Index(iosched.AppID(name), iosched.NoApp))
}

func (a *Aggregator) tenantName(t int32) string { return a.view.TenantName(shares.TenantIdx(t)) }

// The books indexed by AppIdx or TenantIdx grow on demand: an index
// past a book's end holds the zero value.

// slot returns &(*s)[i], growing *s with zero values to reach i.
func slot[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// at reads s[i], which is 0 past the end.
func at[T int32 | int64 | float64](s []T, i int) T {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// zeroed returns s resized to n entries, all zero.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// regroup adds each mirror entry's value into into[tenant of its app].
func (a *Aggregator) regroup(into []int64, mirror *DeltaDec) {
	keys, vals := mirror.Entries()
	for i, k := range keys {
		if v := vals[i]; v != 0 {
			into[a.view.TenantAt(iosched.AppIdx(k))] += v
		}
	}
}

// refreshEpoch rebuilds the tenant totals from the app totals when the
// share tree moved (rare: epochs move on reweights and bindings, not
// on traffic): a rebind moves an app to another tenant.
func (a *Aggregator) refreshEpoch() {
	if a.view.Epoch() == a.epoch {
		return
	}
	a.epoch = a.view.Epoch()
	n := a.view.NumTenants()
	a.globalTenant = zeroed(a.globalTenant, n)
	for ai, q := range a.globalApp {
		if q != 0 {
			a.globalTenant[a.view.TenantAt(iosched.AppIdx(ai))] += q
		}
	}
	for _, ap := range a.parts {
		ap.tenantQ = zeroed(ap.tenantQ, n)
		a.regroup(ap.tenantQ, &ap.dec)
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
	snapshot, entries, err := ap.dec.Decode(msg, a.resolveApp, func(app int32, old, new int64) {
		d := new - old
		t := int(a.view.TenantAt(iosched.AppIdx(app)))
		*slot(&a.globalApp, int(app)) += d
		*slot(&a.globalTenant, t) += d
		*slot(&ap.tenantQ, t) += d
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
	cur := zeroed(a.downCur, len(ap.tenantQ))
	for t, q := range ap.tenantQ {
		if q != 0 {
			cur[t] = a.globalTenant[t]
		}
	}
	a.downCur = cur
	down, n := ap.enc.Encode(cur, a.tenantName, snapshot)
	a.stats.DownEntries += uint64(n)
	a.stats.DownBytes += uint64(len(down))
	if a.probe != nil {
		a.probe()
	}
	return down, nil
}

// TotalQuanta returns the global cumulative quanta of one app.
func (a *Aggregator) TotalQuanta(app iosched.AppID) int64 {
	if ai, ok := a.view.Lookup(app); ok {
		return at(a.globalApp, int(ai))
	}
	return 0
}

// TenantQuanta returns the global cumulative quanta of one tenant.
func (a *Aggregator) TenantQuanta(tenant string) int64 {
	return at(a.globalTenant, int(a.view.TenantIndex(tenant)))
}

// Stats returns the accumulated federation traffic counters.
func (a *Aggregator) Stats() FedStats { return a.stats }

// CheckConservation verifies the root's books in exact arithmetic,
// after every applied uplink when audited. Three equalities must hold
// at every app and tenant index, so each is checked in both
// directions — a value on either side where the other holds none is a
// breach:
//   - the partition mirrors sum to the global app totals;
//   - the app totals regrouped by tenant equal the global tenant
//     totals;
//   - each partition's mirror regrouped by tenant equals the tenant
//     totals it hosts.
//
// The regroupings reuse the aggregator's working slices, so a check
// allocates nothing unless it fails. It returns the first discrepancy
// found.
func (a *Aggregator) CheckConservation() error {
	sum := zeroed(a.sumApp, a.view.NumApps())
	a.sumApp = sum
	for _, ap := range a.parts {
		keys, vals := ap.dec.Entries()
		for i, k := range keys {
			sum[k] += vals[i]
		}
	}
	for ai := range max(len(sum), len(a.globalApp)) {
		if s, g := at(sum, ai), at(a.globalApp, ai); s != g {
			return fmt.Errorf("broker: federation conservation: app %s mirrors sum %d != global %d", a.view.AppName(iosched.AppIdx(ai)), s, g)
		}
	}
	tenants := zeroed(a.sumTenant, a.view.NumTenants())
	a.sumTenant = tenants
	for ai, q := range a.globalApp {
		tenants[a.view.TenantAt(iosched.AppIdx(ai))] += q
	}
	if t, got, want := firstDiff(tenants, a.globalTenant); t >= 0 {
		return fmt.Errorf("broker: federation conservation: tenant %s regrouped %d != global %d", a.view.TenantName(shares.TenantIdx(t)), got, want)
	}
	for p, ap := range a.parts {
		clear(tenants)
		a.regroup(tenants, &ap.dec)
		if t, regrouped, hosted := firstDiff(tenants, ap.tenantQ); t >= 0 {
			return fmt.Errorf("broker: federation conservation: partition %d tenant %s hosted %d != regrouped %d", p, a.view.TenantName(shares.TenantIdx(t)), hosted, regrouped)
		}
	}
	return nil
}

// firstDiff returns the first index at which x and y differ, reading
// past either end as 0, and the two values there; -1 if none.
func firstDiff(x, y []int64) (i int, xv, yv int64) {
	for i := range max(len(x), len(y)) {
		if xv, yv = at(x, i), at(y, i); xv != yv {
			return i, xv, yv
		}
	}
	return -1, 0, 0
}
