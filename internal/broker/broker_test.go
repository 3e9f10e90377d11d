package broker

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

func TestExchangeAggregatesAcrossSchedulers(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100, "B": 50}))
	resp := b.Exchange("n2", costs(map[iosched.AppID]float64{"A": 40}))
	if b.Total("A") != 140 {
		t.Fatalf("total A = %v, want 140", b.Total("A"))
	}
	if resp.Tenants["~A"] != 140 {
		t.Fatalf("tenant total ~A = %v, want 140", resp.Tenants["~A"])
	}
	if b.Total("B") != 50 {
		t.Fatalf("total B = %v, want 50", b.Total("B"))
	}
}

func TestExchangeIsCumulative(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100}))
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 150})) // +50, not +150
	if got := b.Total("A"); got != 150 {
		t.Fatalf("total A = %v, want 150 (cumulative reporting)", got)
	}
}

func TestExchangeResponseScopedToReportedApps(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 1, "B": 2}))
	resp := b.Exchange("n2", costs(map[iosched.AppID]float64{"B": 3}))
	if slices.Contains(resp.Apps, "A") {
		t.Fatal("response leaked app the scheduler does not serve")
	}
	if _, ok := resp.Tenants["~A"]; ok {
		t.Fatal("response leaked tenant the scheduler does not serve")
	}
	if resp.Tenants["~B"] != 5 {
		t.Fatalf("total B = %v, want 5", resp.Tenants["~B"])
	}
}

func TestBrokerAppsSorted(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"z": 1, "a": 1, "m": 1}))
	apps := b.Apps()
	if len(apps) != 3 || apps[0] != "a" || apps[1] != "m" || apps[2] != "z" {
		t.Fatalf("Apps = %v", apps)
	}
}

func TestBrokerStats(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 1, "B": 2}))
	b.Exchange("n2", costs(map[iosched.AppID]float64{"A": 3}))
	st := b.Stats()
	if st.Exchanges != 2 || st.EntriesUp != 3 || st.EntriesDown != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// 3 entries up, 3 app entries down, 3 implicit-tenant entries down.
	if st.BytesApprox() != 9*24 {
		t.Fatalf("BytesApprox = %d", st.BytesApprox())
	}
}

type fakeReporter map[iosched.AppID]float64

func (f fakeReporter) CostVector() []iosched.AppCost { return costs(f) }

// costs is the service vector of a name-keyed literal, sorted by app.
func costs(m map[iosched.AppID]float64) []iosched.AppCost {
	v := make([]iosched.AppCost, 0, len(m))
	for app, c := range m {
		v = append(v, iosched.AppCost{App: app, Idx: iosched.NoApp, Cost: c})
	}
	slices.SortFunc(v, func(x, y iosched.AppCost) int { return strings.Compare(string(x.App), string(y.App)) })
	return v
}

// byName is the name-keyed form of a service vector.
func byName(v []iosched.AppCost) map[iosched.AppID]float64 {
	m := make(map[iosched.AppID]float64, len(v))
	for _, e := range v {
		m[e.App] = e.Cost
	}
	return m
}

func TestClientOtherService(t *testing.T) {
	b := New()
	eng := sim.NewEngine()
	r1 := fakeReporter{"A": 100}
	r2 := fakeReporter{"A": 60}
	c1 := NewClient(eng, "n1", r1, ClientOptions{Transport: NewDirectTransport(b), Period: 1})
	c2 := NewClient(eng, "n2", r2, ClientOptions{Transport: NewDirectTransport(b), Period: 1})
	c1.ExchangeNow()
	c2.ExchangeNow()
	c1.ExchangeNow() // refresh n1's view after n2 reported
	if got := c1.OtherService("A", iosched.NoApp); got != 60 {
		t.Fatalf("n1 sees other service %v, want 60", got)
	}
	if got := c2.OtherService("A", iosched.NoApp); got != 100 {
		t.Fatalf("n2 sees other service %v, want 100", got)
	}
}

func TestClientUnknownAppZero(t *testing.T) {
	c := &Client{view: shares.NewTree()}
	if c.OtherService("nope", iosched.NoApp) != 0 {
		t.Fatal("unknown app should have zero other-service")
	}
}

// TestRetiredSiblingLeavesTenantCharge: a retired app's service leaves
// its tenant's broker total, so a client must not subtract the local
// service its accounting still holds for that app from a live sibling's
// remote charge.
func TestRetiredSiblingLeavesTenantCharge(t *testing.T) {
	tree := shares.NewTree()
	for _, a := range []iosched.AppID{"a", "b"} {
		if err := tree.Bind(a, "T", 1); err != nil {
			t.Fatal(err)
		}
	}
	b := NewPartition(0, tree, 0).Broker()
	eng := sim.NewEngine()
	rep := fakeReporter{"a": 100, "b": 50}
	c := NewClient(eng, "s1", rep, ClientOptions{Transport: NewDirectTransport(b), Period: 1, Shares: tree})
	b.Exchange("s2", costs(map[iosched.AppID]float64{"b": 30}))
	c.ExchangeNow()
	b.Retire("a")
	rep["b"] = 60
	c.ExchangeNow()
	if got := c.OtherService("b", iosched.NoApp); got != 30 {
		t.Fatalf("other service of b's tenant = %v, want 30 (s2's share of live b)", got)
	}
}

// TestCheckRollupDetectsSkew: a tenant rollup that drifted from the
// regroup of the per-app totals is reported.
func TestCheckRollupDetectsSkew(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100, "B": 50}))
	if err := b.CheckRollup(); err != nil {
		t.Fatalf("clean rollup reported: %v", err)
	}
	b.tenants[b.view.TenantIndex("~B")] += 1
	if err := b.CheckRollup(); err == nil {
		t.Fatal("skewed tenant ~B not reported")
	}
}

func TestClientNilBrokerNoSync(t *testing.T) {
	eng := sim.NewEngine()
	c := NewClient(eng, "n1", fakeReporter{"A": 5}, ClientOptions{Period: 1})
	c.ExchangeNow()
	if c.OtherService("A", iosched.NoApp) != 0 {
		t.Fatal("No Sync client returned non-zero other service")
	}
	if c.Rounds() != 0 {
		t.Fatal("No Sync client counted a round")
	}
}

func TestClientPeriodicDaemonTicks(t *testing.T) {
	b := New()
	eng := sim.NewEngine()
	NewClient(eng, "n1", fakeReporter{"A": 7}, ClientOptions{Transport: NewDirectTransport(b), Period: 1})
	// Daemon ticks alone must not keep the sim alive.
	end := eng.Run()
	if end != 0 {
		t.Fatalf("daemon-only sim advanced to %v, want 0", end)
	}
	// With live work spanning 5.5s, ~5 exchanges happen.
	eng.Schedule(5.5, func() {})
	eng.Run()
	if got := b.Stats().Exchanges; got < 4 || got > 6 {
		t.Fatalf("exchanges = %d over 5.5s at 1s period, want ≈5", got)
	}
}

func TestClientDefaultPeriod(t *testing.T) {
	b := New()
	eng := sim.NewEngine()
	NewClient(eng, "n1", fakeReporter{}, ClientOptions{Transport: NewDirectTransport(b), Period: 0}) // invalid period -> 1s default
	eng.Schedule(2.5, func() {})
	eng.Run()
	if got := b.Stats().Exchanges; got != 2 {
		t.Fatalf("exchanges = %d, want 2", got)
	}
}

// Property: broker totals always equal the sum of the latest per-
// scheduler reports, regardless of interleaving; and with every app in
// one tenant, two brokers fed the same fractional costs answer the
// same tenant totals bit for bit, so the rollup's rounding cannot
// follow map iteration order.
func TestPropertyBrokerTotalsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := shares.NewTree()
		for _, a := range []iosched.AppID{"A", "B", "C"} {
			if err := tree.Bind(a, "T", 1); err != nil {
				t.Fatal(err)
			}
		}
		b, twin := NewPartition(0, tree, 0).Broker(), NewPartition(0, tree, 0).Broker()
		latest := map[string]map[iosched.AppID]float64{}
		scheds := []string{"n1", "n2", "n3", "n4"}
		apps := []iosched.AppID{"A", "B", "C"}
		cums := map[string]map[iosched.AppID]float64{}
		for _, s := range scheds {
			cums[s] = map[iosched.AppID]float64{}
		}
		for i := 0; i < 40; i++ {
			s := scheds[rng.Intn(len(scheds))]
			vec := map[iosched.AppID]float64{}
			for _, a := range apps {
				if rng.Intn(2) == 0 {
					cums[s][a] += rng.Float64() * 100
				}
				if cums[s][a] > 0 {
					vec[a] = cums[s][a]
				}
			}
			resp, twinResp := b.Exchange(s, costs(vec)), twin.Exchange(s, costs(vec))
			if len(resp.Tenants) != len(twinResp.Tenants) {
				return false
			}
			for tn, v := range resp.Tenants {
				if twinResp.Tenants[tn] != v {
					return false
				}
			}
			if latest[s] == nil {
				latest[s] = map[iosched.AppID]float64{}
			}
			for a, v := range vec {
				latest[s][a] = v
			}
		}
		for _, a := range apps {
			want := 0.0
			for _, s := range scheds {
				want += latest[s][a]
			}
			if math.Abs(b.Total(a)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sfqd builds an SFQ(D) scheduler on dev.
func sfqd(t *testing.T, eng *sim.Engine, dev *storage.Device, depth int) *iosched.SFQ {
	t.Helper()
	s, err := iosched.NewSFQD(eng, dev, depth)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Integration: two SFQ schedulers on two devices with a shared broker
// achieve total-service proportionality even when one app can only use
// one of the devices (the uneven-distribution problem of Section 5).
func TestCoordinationBalancesTotalService(t *testing.T) {
	tree := shares.NewTree()
	eng := sim.NewEngine()
	spec := storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	}
	dev1 := storage.NewDevice(eng, "d1", spec)
	dev2 := storage.NewDevice(eng, "d2", spec)
	s1, s2 := sfqd(t, eng, dev1, 1), sfqd(t, eng, dev2, 1)
	b := New()
	c1 := NewClient(eng, "n1", s1.Accounting(), ClientOptions{Transport: NewDirectTransport(b), Period: 0.5})
	c2 := NewClient(eng, "n2", s2.Accounting(), ClientOptions{Transport: NewDirectTransport(b), Period: 0.5})
	s1.SetCoordinator(c1)
	s2.SetCoordinator(c2)

	// App X runs on both nodes; app Y only on node 1. Equal weights.
	// Without coordination X gets node2 exclusively plus half of node1
	// (total 1.5 shares vs Y's 0.5). With DSFQ delays, node 1 should
	// compensate Y so totals approach 1:1.
	var xBytes, yBytes float64
	keep := func(s *iosched.SFQ, app iosched.AppID, served *float64) {
		var issue func()
		issue = func() {
			s.Submit(&iosched.Request{
				App: app, Shares: tree, Class: iosched.PersistentRead, Size: 1e6,
				Done: func(any, float64) {
					*served += 1e6
					if eng.Now() < 60 {
						issue()
					}
				},
			})
		}
		for i := 0; i < 2; i++ {
			issue()
		}
	}
	keep(s1, "X", &xBytes)
	keep(s2, "X", &xBytes)
	keep(s1, "Y", &yBytes)
	eng.RunUntil(60)

	ratio := xBytes / yBytes
	if math.Abs(ratio-1) > 0.25 {
		t.Fatalf("coordinated total-service ratio X/Y = %.3f, want ≈1 (X=%.0f Y=%.0f)", ratio, xBytes, yBytes)
	}
}

// The same scenario without coordination must be visibly unfair,
// establishing that the previous test's fairness is the broker's doing.
func TestNoCoordinationIsUnfair(t *testing.T) {
	tree := shares.NewTree()
	eng := sim.NewEngine()
	spec := storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	}
	dev1 := storage.NewDevice(eng, "d1", spec)
	dev2 := storage.NewDevice(eng, "d2", spec)
	s1, s2 := sfqd(t, eng, dev1, 1), sfqd(t, eng, dev2, 1)

	var xBytes, yBytes float64
	keep := func(s *iosched.SFQ, app iosched.AppID, served *float64) {
		var issue func()
		issue = func() {
			s.Submit(&iosched.Request{
				App: app, Shares: tree, Class: iosched.PersistentRead, Size: 1e6,
				Done: func(any, float64) {
					*served += 1e6
					if eng.Now() < 60 {
						issue()
					}
				},
			})
		}
		for i := 0; i < 2; i++ {
			issue()
		}
	}
	keep(s1, "X", &xBytes)
	keep(s2, "X", &xBytes)
	keep(s1, "Y", &yBytes)
	eng.RunUntil(60)

	if ratio := xBytes / yBytes; ratio < 2.5 {
		t.Fatalf("uncoordinated ratio X/Y = %.3f, want ≈3 (local fairness only)", ratio)
	}
}
