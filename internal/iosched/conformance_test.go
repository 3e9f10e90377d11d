package iosched_test

// Scheduler conformance suite: one table-driven harness exercised
// against every Scheduler implementation in the tree — FIFO, SFQ(D),
// SFQ(D2), the cgroups Weight and Throttle baselines, and the
// Reservation extreme. It pins the contract the rest of the system
// (broker, audit, trace, cluster wiring) relies on:
//
//   - accounting monotonicity: per-app Bytes/Cost/Requests never
//     decrease, and at quiescence they equal exactly what was submitted;
//   - Queued/InFlight bookkeeping balance: non-negative at every probe
//     event, zero at quiescence, and every accepted request is
//     eventually completed;
//   - probe event ordering: each request observes arrive → dispatch →
//     complete exactly once each, at non-decreasing virtual times.
//   - cost at submission: every request carries its device cost from
//     its arrival event on, whichever path it takes.

import (
	"math"
	"testing"

	"ibis/internal/cgroups"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

func conformSpec() storage.Spec {
	return storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	}
}

// conformRecorder validates the probe stream online.
type conformRecorder struct {
	t     *testing.T
	name  string
	sched iosched.Scheduler
	dev   *storage.Device

	lastTime float64
	stage    map[*iosched.Request]int // 1 arrived, 2 dispatched, 3 completed
	arrives  int
	counts   [3]int
	lastSvc  map[iosched.AppID]iosched.AppService
}

func (r *conformRecorder) Observe(req *iosched.Request, st iosched.ProbeState) {
	t := r.t
	if st.Time < r.lastTime {
		t.Fatalf("%s: probe time went backwards: %v after %v", r.name, st.Time, r.lastTime)
	}
	r.lastTime = st.Time
	if st.Queued < 0 || st.InFlight < 0 {
		t.Fatalf("%s: negative bookkeeping at %s: queued=%d inflight=%d",
			r.name, st.Event, st.Queued, st.InFlight)
	}
	want := map[iosched.ProbeEvent]int{
		iosched.ProbeArrive:   0,
		iosched.ProbeDispatch: 1,
		iosched.ProbeComplete: 2,
	}[st.Event]
	if got := r.stage[req]; got != want {
		t.Fatalf("%s: request %s/seq=%d got %s at stage %d", r.name, req.App, req.Seq(), st.Event, got)
	}
	r.stage[req] = want + 1
	// Every scheduler assigns the device cost at submission, so the
	// probe sees it from arrival on.
	if c := r.dev.Cost(req.Class.OpKind(), req.Size); req.Cost() != c {
		t.Fatalf("%s: request %s/seq=%d cost %v at %s, want %v", r.name, req.App, req.Seq(), req.Cost(), st.Event, c)
	}
	r.counts[int(st.Event)]++

	if st.Event == iosched.ProbeComplete {
		// Accounting must only ever grow, for every app.
		for _, app := range r.sched.Accounting().Apps() {
			svc := r.sched.Accounting().Service(app)
			prev := r.lastSvc[app]
			if svc.Bytes < prev.Bytes || svc.Cost < prev.Cost || svc.Requests < prev.Requests {
				t.Fatalf("%s: accounting for %s went backwards: %+v after %+v", r.name, app, svc, prev)
			}
			r.lastSvc[app] = svc
		}
	}
}

// conformanceWorkload submits a deterministic multi-app, multi-class
// request mix in staggered batches and returns the per-app bytes and
// request counts that were accepted.
func conformanceWorkload(t *testing.T, eng *sim.Engine, s iosched.Scheduler, name string) (map[iosched.AppID]float64, map[iosched.AppID]uint64) {
	apps := []weighted{{"A", 4}, {"B", 2}, {"C", 1}}
	classes := []iosched.Class{
		iosched.PersistentRead, iosched.IntermediateWrite,
		iosched.IntermediateRead, iosched.PersistentWrite,
	}
	tree := weighTree(t, apps...)
	bytes := make(map[iosched.AppID]float64)
	reqs := make(map[iosched.AppID]uint64)
	for batch := 0; batch < 6; batch++ {
		batch := batch
		eng.Schedule(float64(batch)*0.5, func() {
			for ai, app := range apps {
				for k := 0; k < 3; k++ {
					size := 1e5 * float64(1+(batch+ai+k)%7)
					req := &iosched.Request{
						App:    app.id,
						Shares: tree,
						Class:  classes[(batch+ai+k)%len(classes)],
						Size:   size,
					}
					if err := s.Submit(req); err != nil {
						t.Fatalf("%s: submit rejected: %v", name, err)
					}
					bytes[app.id] += size
					reqs[app.id]++
				}
			}
		})
	}
	return bytes, reqs
}

// weighted is an app and the weight a test binds it at.
type weighted struct {
	id iosched.AppID
	w  float64
}

// weighTree returns a share tree that binds each app at its weight
// under its implicit tenant, which resolves to exactly that weight.
func weighTree(t testing.TB, apps ...weighted) *shares.Tree {
	t.Helper()
	tree := shares.NewTree()
	for _, app := range apps {
		if err := tree.Bind(app.id, "", app.w); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// conformCase builds one scheduler under test on a device.
type conformCase struct {
	name  string
	build func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error)
}

// conformCases lists every Scheduler implementation in the tree, with
// the rate tables the suite runs them under.
func conformCases() []conformCase {
	limits := map[iosched.AppID]float64{"B": 10e6}
	rates := map[iosched.AppID]float64{"A": 30e6, "B": 20e6, "C": 10e6}
	return []conformCase{
		{"fifo", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return iosched.NewFIFO(eng, dev), nil
		}},
		{"sfq(d)", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return iosched.NewSFQD(eng, dev, 4)
		}},
		{"sfq(d2)", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return iosched.NewSFQD2(eng, dev, iosched.ControllerConfig{ReadLref: 0.02})
		}},
		{"cgroups-weight", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return cgroups.NewWeight(eng, dev, 4)
		}},
		{"cgroups-throttle", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return cgroups.NewThrottle(eng, dev, limits)
		}},
		{"reservation", func(eng *sim.Engine, dev *storage.Device) (iosched.Scheduler, error) {
			return iosched.NewReservation(eng, dev, rates, 5e6)
		}},
	}
}

func TestSchedulerConformance(t *testing.T) {
	for _, tc := range conformCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			dev := storage.NewDevice(eng, "d", conformSpec())
			s, err := tc.build(eng, dev)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rec := &conformRecorder{
				t: t, name: tc.name, sched: s, dev: dev,
				stage:   make(map[*iosched.Request]int),
				lastSvc: make(map[iosched.AppID]iosched.AppService),
			}
			s.SetProbe(rec)

			wantBytes, wantReqs := conformanceWorkload(t, eng, s, tc.name)
			eng.Run()

			if s.Queued() != 0 || s.InFlight() != 0 {
				t.Fatalf("quiescent state leaked: queued=%d inflight=%d", s.Queued(), s.InFlight())
			}
			if rec.counts[0] != rec.counts[1] || rec.counts[1] != rec.counts[2] {
				t.Fatalf("probe stream unbalanced: arrive=%d dispatch=%d complete=%d",
					rec.counts[0], rec.counts[1], rec.counts[2])
			}
			for req, st := range rec.stage {
				if st != 3 {
					t.Fatalf("request %s/seq=%d stalled at stage %d", req.App, req.Seq(), st)
				}
			}
			for app, want := range wantBytes {
				svc := s.Accounting().Service(app)
				if svc.Bytes != want {
					t.Errorf("app %s accounted %g bytes, want %g", app, svc.Bytes, want)
				}
				if svc.Requests != wantReqs[app] {
					t.Errorf("app %s accounted %d requests, want %d", app, svc.Requests, wantReqs[app])
				}
				if svc.Cost <= 0 {
					t.Errorf("app %s cost %g, want positive", app, svc.Cost)
				}
				var byClass float64
				for _, b := range svc.ByClass {
					byClass += b
				}
				if byClass != want {
					t.Errorf("app %s per-class split sums to %g, want %g", app, byClass, want)
				}
			}
		})
	}
}

// TestSchedulersRejectNonFiniteSize: a NaN or infinite size is a
// malformed request on every policy. Accepted, a NaN size would
// "complete" in zero time and book NaN bytes and cost; an infinite one
// would never complete.
func TestSchedulersRejectNonFiniteSize(t *testing.T) {
	for _, tc := range conformCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			dev := storage.NewDevice(eng, "d", storage.HDDSpec())
			s, err := tc.build(eng, dev)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, class := range []iosched.Class{iosched.PersistentRead, iosched.IntermediateWrite} {
					req := &iosched.Request{App: "A", Shares: shares.NewTree(), Class: class, Size: size}
					if err := s.Submit(req); err == nil {
						t.Errorf("%v request of size %g accepted", class, size)
					}
				}
			}
			eng.Run()
			if s.Queued() != 0 || s.InFlight() != 0 || len(s.Accounting().Apps()) != 0 {
				t.Fatalf("rejected requests left state: queued=%d inflight=%d apps=%v",
					s.Queued(), s.InFlight(), s.Accounting().Apps())
			}
		})
	}
}
