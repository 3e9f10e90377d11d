package broker

import (
	"errors"
	"testing"

	"ibis/internal/iosched"
)

// sync runs one partition↔root round trip, failing the test on any
// protocol error.
func sync(t *testing.T, ag *Aggregator, p *Partition, now float64) {
	t.Helper()
	msg, _, ok := p.BuildUplink(now)
	if !ok {
		t.Fatalf("t=%v: uplink suppressed", now)
	}
	down, err := ag.HandleUplink(p.ID(), msg)
	if err != nil {
		t.Fatalf("t=%v: uplink rejected: %v", now, err)
	}
	if err := p.ApplyDownlink(down, now); err != nil {
		t.Fatalf("t=%v: downlink rejected: %v", now, err)
	}
}

// TestFederationMergesRemoteTenantService: a scheduler on partition 0
// must see partition 1's service for the same tenant folded into its
// exchange response — the quantity the DSFQ delay rule feeds on.
func TestFederationMergesRemoteTenantService(t *testing.T) {
	ag := NewAggregator(nil)
	p0 := NewPartition(0, nil, 0)
	p1 := NewPartition(1, nil, 0)

	q := DefaultQuantum
	if _, err := p0.Exchange("n0", costs(map[iosched.AppID]float64{"A": 10 * q}), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Exchange("n1", costs(map[iosched.AppID]float64{"A": 30 * q}), 0.1); err != nil {
		t.Fatal(err)
	}
	sync(t, ag, p0, 1)
	sync(t, ag, p1, 1)
	// p0 uplinked before p1's service reached the root; one more round
	// lands the global view everywhere.
	sync(t, ag, p0, 2)
	sync(t, ag, p1, 2)

	if got := ag.TotalQuanta("A"); got != 40 {
		t.Fatalf("root quanta = %d, want 40", got)
	}
	resp, err := p0.Exchange("n0", costs(map[iosched.AppID]float64{"A": 10 * q}), 2.1)
	if err != nil {
		t.Fatal(err)
	}
	// Local 10q plus remote 30q, at quantum granularity.
	if got := resp.Tenants["~A"]; got != 40*q {
		t.Fatalf("merged tenant service = %v, want %v", got, 40*q)
	}
	// The app-level view stays local: cross-partition reconciliation is
	// tenant-granular by design.
	if got := p0.Broker().Total("A"); got != 10*q {
		t.Fatalf("local app service = %v, want %v", got, 10*q)
	}
	if err := ag.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationLeaderOutageRecovery: while the leader is down,
// exchanges fail with ErrUnavailable (clients degrade); the first
// uplink after recovery is a snapshot that resyncs the root from the
// rebuilt local state without double counting.
func TestFederationLeaderOutageRecovery(t *testing.T) {
	ag := NewAggregator(nil)
	p := NewPartition(0, nil, 0)
	down := false
	p.SetDownOracle(func(float64) bool { return down })

	q := DefaultQuantum
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 5 * q}), 0.5); err != nil {
		t.Fatal(err)
	}
	sync(t, ag, p, 1)
	if got := ag.TotalQuanta("A"); got != 5 {
		t.Fatalf("root quanta = %d, want 5", got)
	}

	down = true
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 6 * q}), 1.5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exchange during outage: %v, want ErrUnavailable", err)
	}
	if _, _, ok := p.BuildUplink(2); ok {
		t.Fatal("dead leader produced an uplink")
	}

	down = false
	// The recovered leader restarts with empty report memory; the
	// scheduler's cumulative vector rebuilds the total in one exchange.
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 8 * q}), 2.5); err != nil {
		t.Fatal(err)
	}
	msg, _, ok := p.BuildUplink(3)
	if !ok {
		t.Fatal("recovered leader suppressed uplink")
	}
	downMsg, err := ag.HandleUplink(0, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.Stats().Snapshots; got < 2 {
		t.Fatalf("snapshots = %d: crash recovery did not snapshot", got)
	}
	if err := p.ApplyDownlink(downMsg, 3); err != nil {
		t.Fatal(err)
	}
	if got := ag.TotalQuanta("A"); got != 8 {
		t.Fatalf("root quanta after recovery = %d, want 8 (no double count)", got)
	}
	if err := ag.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationStalenessFailsExchanges: a partition cut off from the
// root past its staleness bound must fail exchanges rather than run the
// delay rule on an arbitrarily old remote view.
func TestFederationStalenessFailsExchanges(t *testing.T) {
	ag := NewAggregator(nil)
	p := NewPartition(0, nil, 2.0) // staleAfter = 2 s
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 1 * DefaultQuantum}), 0.5); err != nil {
		t.Fatal(err)
	}
	// Never synced: exchanges keep working on purely local totals (the
	// bound starts at the first applied downlink).
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 2 * DefaultQuantum}), 5); err != nil {
		t.Fatalf("unsynced partition must stay local, got %v", err)
	}
	sync(t, ag, p, 6)
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 3 * DefaultQuantum}), 7); err != nil {
		t.Fatalf("fresh view: %v", err)
	}
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 4 * DefaultQuantum}), 8.5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stale view exchange: %v, want ErrUnavailable", err)
	}
	if !p.Stale(8.5) {
		t.Fatal("Stale(8.5) = false with 2.5s-old view and 2s bound")
	}
	sync(t, ag, p, 9)
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 5 * DefaultQuantum}), 9.5); err != nil {
		t.Fatalf("resynced view: %v", err)
	}
}

// TestFederationDownlinkScopedToHostedTenants: partition 0's downlink
// must carry only tenants partition 0 hosts — the O(delta)-per-link
// property the bytes gate regresses on.
func TestFederationDownlinkScopedToHostedTenants(t *testing.T) {
	ag := NewAggregator(nil)
	p0 := NewPartition(0, nil, 0)
	p1 := NewPartition(1, nil, 0)
	q := DefaultQuantum
	if _, err := p0.Exchange("n0", costs(map[iosched.AppID]float64{"A": 10 * q}), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Exchange("n1", costs(map[iosched.AppID]float64{"B": 20 * q}), 0.1); err != nil {
		t.Fatal(err)
	}
	sync(t, ag, p0, 1)
	sync(t, ag, p1, 1)
	sync(t, ag, p0, 2)

	// p0 hosts only tenant ~A; p1's tenant ~B must not appear in its
	// remote view even though the root knows it.
	if got := ag.TenantQuanta("~B"); got != 20 {
		t.Fatalf("root has ~B = %d, want 20", got)
	}
	resp, err := p0.Exchange("n0", costs(map[iosched.AppID]float64{"A": 10 * q}), 2.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.Tenants["~B"]; ok {
		t.Fatal("downlink leaked a tenant the partition does not host")
	}
	if err := ag.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationRetirePropagatesAsExplicitZero: retiring an app on the
// partition broker must flow to the root as an explicit zero delta,
// removing its quanta from the global totals without a snapshot.
func TestFederationRetirePropagatesAsExplicitZero(t *testing.T) {
	ag := NewAggregator(nil)
	p := NewPartition(0, nil, 0)
	q := DefaultQuantum
	if _, err := p.Exchange("n0", costs(map[iosched.AppID]float64{"A": 10 * q, "B": 4 * q}), 0.1); err != nil {
		t.Fatal(err)
	}
	sync(t, ag, p, 1)
	if got := ag.TotalQuanta("A"); got != 10 {
		t.Fatalf("root quanta A = %d, want 10", got)
	}
	p.Broker().Retire("A")
	sync(t, ag, p, 2)
	if got := ag.TotalQuanta("A"); got != 0 {
		t.Fatalf("root quanta A after retire = %d, want 0", got)
	}
	if got := ag.TotalQuanta("B"); got != 4 {
		t.Fatalf("root quanta B = %d, want 4", got)
	}
	if got := ag.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots = %d: retirement must ride the delta stream", got)
	}
	if err := ag.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
