package broker

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// directTransport is the perfectly reliable, instantaneous in-process
// transport: every response arrives inside the call.
type directTransport struct{ b *Broker }

func (d directTransport) Exchange(id string, vec []iosched.AppCost, done func(Response, error)) {
	done(d.b.Exchange(id, vec), nil)
}

func (d directTransport) Register(id string, done func(error)) {
	d.b.Register(id)
	done(nil)
}

func (d directTransport) Unregister(id string) { d.b.Unregister(id) }

func TestExchangeAggregatesAcrossSchedulers(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 100, "B": 50}))
	resp := b.Exchange("n2", costs(tree, map[iosched.AppID]float64{"A": 40}))
	if b.Total("A") != 140 {
		t.Fatalf("total A = %v, want 140", b.Total("A"))
	}
	if tenants(tree, resp)["~A"] != 140 {
		t.Fatalf("tenant total ~A = %v, want 140", tenants(tree, resp)["~A"])
	}
	if b.Total("B") != 50 {
		t.Fatalf("total B = %v, want 50", b.Total("B"))
	}
}

func TestExchangeIsCumulative(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 100}))
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 150})) // +50, not +150
	if got := b.Total("A"); got != 150 {
		t.Fatalf("total A = %v, want 150 (cumulative reporting)", got)
	}
}

func TestExchangeResponseScopedToReportedApps(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 1, "B": 2}))
	resp := b.Exchange("n2", costs(tree, map[iosched.AppID]float64{"B": 3}))
	if slices.Contains(appNames(tree, resp), "A") {
		t.Fatal("response leaked app the scheduler does not serve")
	}
	if _, ok := tenants(tree, resp)["~A"]; ok {
		t.Fatal("response leaked tenant the scheduler does not serve")
	}
	if tenants(tree, resp)["~B"] != 5 {
		t.Fatalf("total B = %v, want 5", tenants(tree, resp)["~B"])
	}
}

func TestBrokerAppsSorted(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"z": 1, "a": 1, "m": 1}))
	apps := b.Apps()
	if len(apps) != 3 || apps[0] != "a" || apps[1] != "m" || apps[2] != "z" {
		t.Fatalf("Apps = %v", apps)
	}
}

func TestBrokerStats(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 1, "B": 2}))
	b.Exchange("n2", costs(tree, map[iosched.AppID]float64{"A": 3}))
	st := b.Stats()
	if st.Exchanges != 2 || st.EntriesUp != 3 || st.EntriesDown != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// 3 entries up, 3 app entries down, 3 implicit-tenant entries down.
	if st.BytesApprox() != 9*24 {
		t.Fatalf("BytesApprox = %d", st.BytesApprox())
	}
}

// mapReporter is a hand-driven Reporter: name-keyed service, numbered
// by tree.
type mapReporter struct {
	tree *shares.Tree
	m    map[iosched.AppID]float64
}

func (r mapReporter) CostVector() []iosched.AppCost { return costs(r.tree, r.m) }

// costs is the service vector of a name-keyed literal, numbered by
// tree and sorted by app name, as an Accounting's is.
func costs(tree *shares.Tree, m map[iosched.AppID]float64) []iosched.AppCost {
	names := make([]iosched.AppID, 0, len(m))
	for app := range m {
		names = append(names, app)
	}
	slices.Sort(names)
	v := make([]iosched.AppCost, len(names))
	for i, app := range names {
		v[i] = iosched.AppCost{Idx: tree.Index(app), Cost: m[app]}
	}
	return v
}

// byName is the name-keyed form of a service vector.
func byName(tree *shares.Tree, v []iosched.AppCost) map[iosched.AppID]float64 {
	m := make(map[iosched.AppID]float64, len(v))
	for _, e := range v {
		m[tree.AppName(e.Idx)] = e.Cost
	}
	return m
}

// tenants is the name-keyed form of a response's tenant totals.
func tenants(tree *shares.Tree, resp Response) map[string]float64 {
	m := make(map[string]float64, len(resp.Tenants))
	for _, tt := range resp.Tenants {
		m[tree.TenantName(tt.Tenant)] = tt.Total
	}
	return m
}

// appNames names a response's counted apps.
func appNames(tree *shares.Tree, resp Response) []iosched.AppID {
	names := make([]iosched.AppID, len(resp.Apps))
	for i, ai := range resp.Apps {
		names[i] = tree.AppName(ai)
	}
	return names
}

func TestClientOtherService(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	eng := sim.NewEngine()
	r1 := mapReporter{tree, map[iosched.AppID]float64{"A": 100}}
	r2 := mapReporter{tree, map[iosched.AppID]float64{"A": 60}}
	c1 := NewClient(eng, "n1", r1, ClientOptions{Transport: directTransport{b}, Period: 1, Shares: tree})
	c2 := NewClient(eng, "n2", r2, ClientOptions{Transport: directTransport{b}, Period: 1, Shares: tree})
	c1.ExchangeNow()
	c2.ExchangeNow()
	c1.ExchangeNow() // refresh n1's view after n2 reported
	if got := c1.OtherService(tree.Index("A")); got != 60 {
		t.Fatalf("n1 sees other service %v, want 60", got)
	}
	if got := c2.OtherService(tree.Index("A")); got != 100 {
		t.Fatalf("n2 sees other service %v, want 100", got)
	}
}

func TestClientUnknownAppZero(t *testing.T) {
	tree := shares.NewTree()
	c := &Client{view: tree}
	if c.OtherService(tree.Index("nope")) != 0 {
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
	rep := mapReporter{tree, map[iosched.AppID]float64{"a": 100, "b": 50}}
	c := NewClient(eng, "s1", rep, ClientOptions{Transport: directTransport{b}, Period: 1, Shares: tree})
	b.Exchange("s2", costs(tree, map[iosched.AppID]float64{"b": 30}))
	c.ExchangeNow()
	b.Retire(tree.Index("a"))
	rep.m["b"] = 60
	c.ExchangeNow()
	if got := c.OtherService(tree.Index("b")); got != 30 {
		t.Fatalf("other service of b's tenant = %v, want 30 (s2's share of live b)", got)
	}
}

// TestCheckRollupDetectsSkew: a tenant rollup that drifted from the
// regroup of the per-app totals is reported.
func TestCheckRollupDetectsSkew(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	b.Exchange("n1", costs(tree, map[iosched.AppID]float64{"A": 100, "B": 50}))
	if err := b.CheckRollup(); err != nil {
		t.Fatalf("clean rollup reported: %v", err)
	}
	b.tenants[b.view.TenantIndex("~B")] += 1
	if err := b.CheckRollup(); err == nil {
		t.Fatal("skewed tenant ~B not reported")
	}
}

func TestClientNilBrokerNoSync(t *testing.T) {
	tree := shares.NewTree()
	eng := sim.NewEngine()
	c := NewClient(eng, "n1", mapReporter{tree, map[iosched.AppID]float64{"A": 5}}, ClientOptions{Period: 1, Shares: tree})
	c.ExchangeNow()
	if c.OtherService(tree.Index("A")) != 0 {
		t.Fatal("No Sync client returned non-zero other service")
	}
	if c.Rounds() != 0 {
		t.Fatal("No Sync client counted a round")
	}
}

func TestClientPeriodicDaemonTicks(t *testing.T) {
	tree := shares.NewTree()
	b := New(tree)
	eng := sim.NewEngine()
	NewClient(eng, "n1", mapReporter{tree, map[iosched.AppID]float64{"A": 7}}, ClientOptions{Transport: directTransport{b}, Period: 1, Shares: tree})
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
	tree := shares.NewTree()
	b := New(tree)
	eng := sim.NewEngine()
	NewClient(eng, "n1", mapReporter{tree, map[iosched.AppID]float64{}}, ClientOptions{Transport: directTransport{b}, Period: 0, Shares: tree}) // invalid period -> 1s default
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
			resp, twinResp := b.Exchange(s, costs(tree, vec)), twin.Exchange(s, costs(tree, vec))
			if !slices.Equal(resp.Tenants, twinResp.Tenants) {
				return false
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
func sfqd(t *testing.T, eng *sim.Engine, dev *storage.Device, tree *shares.Tree, depth int) *iosched.SFQ {
	t.Helper()
	s, err := iosched.NewSFQD(eng, dev, tree, depth)
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
	s1, s2 := sfqd(t, eng, dev1, tree, 1), sfqd(t, eng, dev2, tree, 1)
	b := New(tree)
	c1 := NewClient(eng, "n1", s1.Accounting(), ClientOptions{Transport: directTransport{b}, Period: 0.5, Shares: tree})
	c2 := NewClient(eng, "n2", s2.Accounting(), ClientOptions{Transport: directTransport{b}, Period: 0.5, Shares: tree})
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
				AppIdx: tree.Index(app), Class: iosched.PersistentRead, Size: 1e6,
				Done: iosched.DoneFunc(func(*iosched.Request, float64) {
					*served += 1e6
					if eng.Now() < 60 {
						issue()
					}
				}),
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
	s1, s2 := sfqd(t, eng, dev1, tree, 1), sfqd(t, eng, dev2, tree, 1)

	var xBytes, yBytes float64
	keep := func(s *iosched.SFQ, app iosched.AppID, served *float64) {
		var issue func()
		issue = func() {
			s.Submit(&iosched.Request{
				AppIdx: tree.Index(app), Class: iosched.PersistentRead, Size: 1e6,
				Done: iosched.DoneFunc(func(*iosched.Request, float64) {
					*served += 1e6
					if eng.Now() < 60 {
						issue()
					}
				}),
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

// TestExchangeFoldsInNameOrder: the broker folds a vector into its
// tenant rollup in the vector's order, which is app-name order, not the
// order the tree numbered the apps in. Here b is numbered before a, and
// the two orders round the rollup differently in its last bit.
func TestExchangeFoldsInNameOrder(t *testing.T) {
	tree := shares.NewTree()
	for _, a := range []iosched.AppID{"b", "a"} {
		if err := tree.Bind(a, "T", 1); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Index("b") >= tree.Index("a") {
		t.Fatal("b must be numbered before a")
	}
	b := New(tree)
	b.Exchange("s0", costs(tree, map[iosched.AppID]float64{"a": 0.1}))
	resp := b.Exchange("s1", costs(tree, map[iosched.AppID]float64{"a": 0.2, "b": 3.3}))
	t0, x, y := 0.1, 0.2, 3.3 // variables: constant arithmetic is exact
	byName, byIdx := (t0+x)+y, (t0+y)+x
	if byName == byIdx {
		t.Fatal("the two fold orders must round differently")
	}
	if got := tenants(tree, resp)["T"]; got != byName {
		t.Fatalf("tenant total %v, want %v (name order), not %v (index order)", got, byName, byIdx)
	}
	if got := b.TenantTotals()["T"]; got != byName {
		t.Fatalf("rollup %v, want %v (name order)", got, byName)
	}
}
