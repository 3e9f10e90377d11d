package iosched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// flatSpec is a simple device for scheduler tests: symmetric, no
// overhead, capacity independent of concurrency, no flushes. 100 MB/s.
func flatSpec() storage.Spec {
	return storage.Spec{
		Name:          "flat",
		ReadBW:        100e6,
		WriteBW:       100e6,
		PerOpOverhead: 0,
		Curve:         []float64{1},
		CurveDecay:    1,
		MinCurve:      1,
	}
}

func newTestSFQ(t *testing.T, depth int) (*sim.Engine, *SFQ) {
	t.Helper()
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	return eng, mustSFQD(t, eng, dev, depth)
}

// flat is the package's test weight source: it numbers apps by name, in
// one table every flat shares, and resolves every app to weight w at
// epoch 0. It is not safe for concurrent use.
type flat float64

var flatNames []AppID // by index

func (w flat) Resolve(app AppID, hint AppIdx, _ Class) (AppIdx, float64, uint64) {
	if uint(hint) >= uint(len(flatNames)) || flatNames[hint] != app {
		hint = AppIdx(slices.Index(flatNames, app))
		if hint < 0 {
			hint = AppIdx(len(flatNames))
			flatNames = append(flatNames, app)
		}
	}
	return hint, float64(w), 0
}

// backlog keeps `outstanding` requests of the given size in flight for
// app until the engine passes `until`, tallying serviced bytes.
func backlog(eng *sim.Engine, s Scheduler, app AppID, weight float64, class Class, size float64, outstanding int, until float64, served *float64) {
	var issue func()
	issue = func() {
		s.Submit(&Request{
			App: app, Shares: flat(weight), Class: class, Size: size,
			Done: func(any, float64) {
				*served += size
				if eng.Now() < until {
					issue()
				}
			},
		})
	}
	for i := 0; i < outstanding; i++ {
		issue()
	}
}

func TestSFQProportionalSharing(t *testing.T) {
	for _, ratio := range []float64{1, 2, 4, 8} {
		eng, s := newTestSFQ(t, 1)
		var a, b float64
		backlog(eng, s, "A", ratio, PersistentRead, 1e6, 4, 60, &a)
		backlog(eng, s, "B", 1, PersistentRead, 1e6, 4, 60, &b)
		eng.RunUntil(60)
		got := a / b
		if math.Abs(got-ratio)/ratio > 0.1 {
			t.Errorf("weight ratio %v: service ratio %.3f (a=%.0f b=%.0f)", ratio, got, a, b)
		}
	}
}

func TestSFQProportionalSharingDeeper(t *testing.T) {
	// Fairness should hold (more loosely) at depth 4 as well.
	eng, s := newTestSFQ(t, 4)
	var a, b float64
	backlog(eng, s, "A", 3, PersistentRead, 1e6, 8, 60, &a)
	backlog(eng, s, "B", 1, PersistentRead, 1e6, 8, 60, &b)
	eng.RunUntil(60)
	if got := a / b; math.Abs(got-3)/3 > 0.25 {
		t.Errorf("service ratio %.3f, want ≈3", got)
	}
}

func TestSFQWorkConservingWhenOneFlowIdle(t *testing.T) {
	eng, s := newTestSFQ(t, 2)
	var a float64
	// Only one flow present: it should get the full device.
	backlog(eng, s, "A", 1, PersistentRead, 1e6, 2, 10, &a)
	eng.RunUntil(10)
	if a < 0.95*100e6*10 {
		t.Errorf("single flow served %.0f bytes in 10s, want ≈ full 1e9", a)
	}
}

func TestSFQDepthBoundsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 3)
	maxIn := 0
	s.SetProbe(ProbeFunc(func(_ *Request, st ProbeState) {
		if st.Event == ProbeComplete && s.InFlight() > maxIn {
			maxIn = s.InFlight()
		}
	}))
	for i := 0; i < 20; i++ {
		s.Submit(&Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6})
	}
	if s.InFlight() != 3 {
		t.Fatalf("InFlight = %d immediately after burst, want 3", s.InFlight())
	}
	if s.Queued() != 17 {
		t.Fatalf("Queued = %d, want 17", s.Queued())
	}
	eng.Run()
	if s.Queued() != 0 || s.InFlight() != 0 {
		t.Fatalf("left over: queued=%d inflight=%d", s.Queued(), s.InFlight())
	}
	if dev.Stats().ReadOps != 20 {
		t.Fatalf("device ops = %d, want 20", dev.Stats().ReadOps)
	}
}

func TestSFQVirtualTimeMonotone(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 2)
	last := -1.0
	s.SetProbe(ProbeFunc(func(_ *Request, st ProbeState) {
		if st.Event != ProbeComplete {
			return
		}
		v := s.VirtualTime()
		if v < last {
			t.Errorf("virtual time went backwards: %v -> %v", last, v)
		}
		last = v
	}))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		app := AppID("A")
		if rng.Intn(2) == 0 {
			app = "B"
		}
		eng.Schedule(rng.Float64()*5, func() {
			s.Submit(&Request{App: app, Shares: flat(1 + rng.Float64()*3), Class: PersistentWrite, Size: 1e5 + rng.Float64()*1e6})
		})
	}
	eng.Run()
}

func TestSFQTagAlgebra(t *testing.T) {
	eng, s := newTestSFQ(t, 1)
	var reqs []*Request
	for i := 0; i < 3; i++ {
		r := &Request{App: "A", Shares: flat(2), Class: PersistentRead, Size: 2e6}
		reqs = append(reqs, r)
		s.Submit(r)
	}
	// cost = 2e6 bytes; finish = start + cost/weight = start + 1e6.
	if reqs[0].StartTag() != 0 {
		t.Fatalf("first start tag = %v, want 0", reqs[0].StartTag())
	}
	for i, r := range reqs {
		wantS := float64(i) * 1e6
		if math.Abs(r.StartTag()-wantS) > 1 {
			t.Errorf("req %d start tag %v, want %v", i, r.StartTag(), wantS)
		}
		if math.Abs(r.FinishTag()-(wantS+1e6)) > 1 {
			t.Errorf("req %d finish tag %v, want %v", i, r.FinishTag(), wantS+1e6)
		}
	}
	eng.Run()
}

func TestSFQLowerWeightMeansLaterFinishTags(t *testing.T) {
	_, s := newTestSFQ(t, 1)
	ra := &Request{App: "A", Shares: flat(4), Class: PersistentRead, Size: 1e6}
	rb := &Request{App: "B", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(ra)
	s.Submit(rb)
	if rb.FinishTag() <= ra.FinishTag() {
		t.Fatalf("low-weight finish tag %v not after high-weight %v", rb.FinishTag(), ra.FinishTag())
	}
}

func TestSFQInvalidDepthRejected(t *testing.T) {
	eng := sim.NewEngine()
	for _, depth := range []int{0, -1} {
		if s, err := NewSFQD(eng, storage.NewDevice(eng, "d", flatSpec()), depth); err == nil || s != nil {
			t.Errorf("depth %d: got %v, %v; want an error", depth, s, err)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []Request{
		{App: "", Shares: flat(1), Class: PersistentRead, Size: 1},
		{App: "A", Shares: flat(0), Class: PersistentRead, Size: 1},
		{App: "A", Shares: flat(-1), Class: PersistentRead, Size: 1},
		{App: "A", Shares: flat(1), Class: PersistentRead, Size: -5},
		{App: "A", Shares: flat(1), Class: Class(99), Size: 1},
	}
	for i := range cases {
		req := cases[i]
		_, s := newTestSFQ(t, 1)
		if err := s.Submit(&req); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
		if s.Queued() != 0 || s.InFlight() != 0 {
			t.Errorf("case %d: rejected request left state behind", i)
		}
	}
}

func TestFIFOPassthrough(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	f := NewFIFO(eng, dev)
	if f.Name() != "native" {
		t.Fatalf("Name = %q", f.Name())
	}
	for i := 0; i < 10; i++ {
		f.Submit(&Request{App: "A", Shares: flat(1), Class: IntermediateWrite, Size: 1e6})
	}
	if f.InFlight() != 10 {
		t.Fatalf("InFlight = %d, want 10 (no admission control)", f.InFlight())
	}
	if f.Queued() != 0 {
		t.Fatalf("Queued = %d, want 0", f.Queued())
	}
	eng.Run()
	if got := f.Accounting().Service("A").Bytes; got != 10e6 {
		t.Fatalf("accounted bytes = %v, want 1e7", got)
	}
}

func TestFIFONoIsolation(t *testing.T) {
	// Under FIFO an aggressive flow crowds out a light one regardless of
	// weights — the motivating problem.
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	f := NewFIFO(eng, dev)
	var light, heavy float64
	backlog(eng, f, "light", 32, PersistentRead, 1e6, 1, 30, &light)
	backlog(eng, f, "heavy", 1, PersistentRead, 1e6, 16, 30, &heavy)
	eng.RunUntil(30)
	if light > heavy {
		t.Fatalf("FIFO honored weights?! light=%.0f heavy=%.0f", light, heavy)
	}
	if heavy < 8*light {
		t.Fatalf("heavy/light = %.2f, want heavy to dominate despite weights", heavy/light)
	}
}

func TestSFQIsolatesDespiteAggression(t *testing.T) {
	// Same scenario as above but SFQ(D=1) with 32:1 weights: the light
	// flow should now receive the majority of service.
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	var light, heavy float64
	backlog(eng, s, "light", 32, PersistentRead, 1e6, 1, 30, &light)
	backlog(eng, s, "heavy", 1, PersistentRead, 1e6, 16, 30, &heavy)
	eng.RunUntil(30)
	if light <= heavy {
		t.Fatalf("SFQ failed to isolate: light=%.0f heavy=%.0f", light, heavy)
	}
}

func TestAccountingPerClass(t *testing.T) {
	eng, s := newTestSFQ(t, 4)
	s.Submit(&Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6})
	s.Submit(&Request{App: "A", Shares: flat(1), Class: IntermediateWrite, Size: 2e6})
	eng.Run()
	svc := s.Accounting().Service("A")
	if svc.ByClass[PersistentRead] != 1e6 || svc.ByClass[IntermediateWrite] != 2e6 {
		t.Fatalf("per-class bytes = %v", svc.ByClass)
	}
	if svc.Requests != 2 {
		t.Fatalf("requests = %d", svc.Requests)
	}
	if got := s.Accounting().TotalBytes(); got != 3e6 {
		t.Fatalf("total = %v", got)
	}
}

func TestAccountingAppsSorted(t *testing.T) {
	eng, s := newTestSFQ(t, 4)
	for _, app := range []AppID{"zeta", "alpha", "mid"} {
		s.Submit(&Request{App: app, Shares: flat(1), Class: PersistentRead, Size: 1e5})
	}
	eng.Run()
	apps := s.Accounting().Apps()
	if len(apps) != 3 || apps[0] != "alpha" || apps[1] != "mid" || apps[2] != "zeta" {
		t.Fatalf("Apps() = %v", apps)
	}
}

func TestAccountingUnknownApp(t *testing.T) {
	a := NewAccounting()
	if got := a.Service("nope"); got.Bytes != 0 || got.Requests != 0 {
		t.Fatalf("unknown app service = %+v", got)
	}
}

func TestCostVectorMatchesService(t *testing.T) {
	eng, s := newTestSFQ(t, 2)
	s.Submit(&Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 3e6})
	s.Submit(&Request{App: "B", Shares: flat(1), Class: PersistentWrite, Size: 5e6})
	eng.Run()
	v := s.Accounting().CostVector()
	if len(v) != 2 || v[0].App != "A" || v[1].App != "B" ||
		v[0].Cost != s.Accounting().Service("A").Cost || v[1].Cost != s.Accounting().Service("B").Cost {
		t.Fatalf("cost vector %v mismatches accounting (or is not sorted by app)", v)
	}
}

func TestClassProperties(t *testing.T) {
	if PersistentRead.OpKind() != storage.Read || IntermediateRead.OpKind() != storage.Read {
		t.Fatal("read classes must map to reads")
	}
	if PersistentWrite.OpKind() != storage.Write || IntermediateWrite.OpKind() != storage.Write {
		t.Fatal("write classes must map to writes")
	}
	if !PersistentRead.Persistent() || !PersistentWrite.Persistent() {
		t.Fatal("persistent classes misreported")
	}
	if IntermediateRead.Persistent() || IntermediateWrite.Persistent() {
		t.Fatal("intermediate classes misreported")
	}
	for _, c := range []Class{PersistentRead, PersistentWrite, IntermediateRead, IntermediateWrite} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should still render")
	}
}

// Property: under persistent backlog from two flows with random weights,
// SFQ(D=1) delivers service within 15% of the weight ratio.
func TestPropertySFQFairness(t *testing.T) {
	f := func(wRaw uint8) bool {
		w := 1 + float64(wRaw%16)
		eng, s := newTestSFQ(t, 1)
		var a, b float64
		backlog(eng, s, "A", w, PersistentRead, 1e6, 4, 40, &a)
		backlog(eng, s, "B", 1, PersistentRead, 1e6, 4, 40, &b)
		eng.RunUntil(40)
		if b == 0 {
			return false
		}
		got := a / b
		return math.Abs(got-w)/w < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: all submitted requests complete exactly once, regardless of
// depth and arrival pattern.
func TestPropertySFQCompleteness(t *testing.T) {
	f := func(seed int64, depthRaw, nRaw uint8) bool {
		depth := 1 + int(depthRaw%8)
		n := 1 + int(nRaw%60)
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		dev := storage.NewDevice(eng, "d", flatSpec())
		s := mustSFQD(t, eng, dev, depth)
		completions := 0
		for i := 0; i < n; i++ {
			eng.Schedule(rng.Float64()*3, func() {
				s.Submit(&Request{
					App:    AppID([]string{"A", "B", "C"}[rng.Intn(3)]),
					Shares: flat(1 + rng.Float64()*7),
					Class:  Class(rng.Intn(4)),
					Size:   rng.Float64() * 4e6,
					Done:   func(any, float64) { completions++ },
				})
			})
		}
		eng.Run()
		return completions == n && s.Queued() == 0 && s.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSFQNames(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	if got := mustSFQD(t, eng, dev, 4).Name(); got != "sfq(d=4)" {
		t.Fatalf("Name = %q", got)
	}
	d2 := mustSFQD2(t, eng, dev, ControllerConfig{ReadLref: 0.01})
	if got := d2.Name(); got != "sfq(d2)" {
		t.Fatalf("Name = %q", got)
	}
	if d2.Controller() == nil {
		t.Fatal("SFQ(D2) without controller")
	}
}

// TestSFQDeviceRoundTripAllocs is the tier-1 twin of
// BenchmarkSFQDeviceRoundTrip: once warm, a request's full trip through
// SFQ(D), the device and its processor-sharing resource allocates
// nothing (no dispatch closure, device closure or job record).
func TestSFQDeviceRoundTripAllocs(t *testing.T) {
	rt, reqs := newRoundTrip(t, 16)
	if err := rt.run(reqs, 256); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		if e := rt.run(reqs, 64); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if perReq := allocs / 64; perReq != 0 {
		t.Fatalf("round trip allocates %.3g times per request, want 0", perReq)
	}
}

// numbered is a weight source that numbers its apps from a fixed
// table, as one share tree would.
type numbered map[AppID]AppIdx

func (n numbered) Resolve(app AppID, _ AppIdx, _ Class) (AppIdx, float64, uint64) {
	return n[app], 1, 0
}

// TestSchedulersRejectTwoNumberings: two sources that both number
// their first app 0 must not merge two apps into one flow or bucket; a
// scheduler refuses the second app instead, while another app of the
// first numbering takes a flow of its own.
func TestSchedulersRejectTwoNumberings(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	res, err := NewReservation(eng, dev, nil, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{mustSFQD(t, eng, dev, 2), res} {
		req := func(app AppID, src WeightSource) *Request {
			return &Request{App: app, Shares: src, Class: PersistentRead, Size: 1e6}
		}
		if err := s.Submit(req("a", numbered{"a": 0})); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := s.Submit(req("c", numbered{"a": 0, "c": 1})); err != nil {
			t.Fatalf("%s: app c of app a's numbering: %v", s.Name(), err)
		}
		if err := s.Submit(req("b", numbered{"b": 0})); err == nil {
			t.Fatalf("%s: accepted app b under app a's index", s.Name())
		}
	}
	eng.Run()
}
