package audit

// Internal tests for the degradation bookkeeping: the cluster-level
// relaxation spans NoteDegradeStart/End maintain, the per-scheduler
// degraded regime, and the regime switching of the window checks.

import (
	"math"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

func TestDegradeSkipSpans(t *testing.T) {
	a := New(Options{CoordinationPeriod: 1}, shares.NewTree())
	a.NoteDegradeStart(0, "d", 10)
	if a.skipWindow(0, 10) {
		t.Error("window before the degrade start is skipped")
	}
	if !a.skipWindow(9.5, 10.5) {
		t.Error("window overlapping the degrade start is not skipped")
	}
	if !a.skipWindow(100, 101) {
		t.Error("open degrade span must skip every later window")
	}

	a.NoteDegradeEnd(0, "d", 20)
	// Grace: K=5 periods × 1 s → the span relaxes [10, 25).
	if !a.skipWindow(24, 25) {
		t.Error("window inside the recovery grace is not skipped")
	}
	if a.skipWindow(25, 26) {
		t.Error("window past the recovery grace is still skipped")
	}
	if a.Checks()["degrade-noted"] != 1 || a.Checks()["recover-noted"] != 1 {
		t.Errorf("note counters = %d/%d, want 1/1",
			a.Checks()["degrade-noted"], a.Checks()["recover-noted"])
	}
}

func TestDegradeEndWithoutStartIsSafe(t *testing.T) {
	a := New(Options{}, shares.NewTree())
	a.NoteDegradeEnd(3, "x", 7) // never started; must not panic or open a span
	if len(a.skips) != 0 {
		t.Errorf("spans = %+v, want none", a.skips)
	}
	if a.skipWindow(0, 100) {
		t.Error("phantom skip span")
	}
}

// Interleaved degradations must close only their own span: scheduler A
// recovering while B is still down may not re-tighten the cluster
// bound early.
func TestInterleavedDegradeSpansCloseIndependently(t *testing.T) {
	a := New(Options{CoordinationPeriod: 1}, shares.NewTree())
	a.NoteDegradeStart(0, "hdfs", 10)
	a.NoteDegradeStart(1, "hdfs", 15)
	a.NoteDegradeEnd(0, "hdfs", 20) // span [10, 25)
	if !a.skipWindow(26, 27) {
		t.Error("B still degraded, but window no longer skipped")
	}
	a.NoteDegradeEnd(1, "hdfs", 30) // span [15, 35)
	if len(a.skips) != 2 {
		t.Fatalf("spans = %d, want 2", len(a.skips))
	}
	if a.skips[0].to != 25 || a.skips[1].to != 35 {
		t.Errorf("span ends = %v/%v, want 25/35", a.skips[0].to, a.skips[1].to)
	}
	if a.skipWindow(35, 36) {
		t.Error("window after the last grace is still skipped")
	}
}

func TestFullyDegradedRequiresCompleteCoverage(t *testing.T) {
	s := &schedState{degraded: []span{{from: 10, to: 20}, {from: 30, to: math.Inf(1)}}}
	for _, tc := range []struct {
		ws, we float64
		want   bool
	}{
		{10, 20, true},
		{12, 18, true},
		{8, 12, false},  // straddles the start
		{18, 22, false}, // straddles the end
		{22, 28, false}, // between spans
		{30, 1e9, true}, // open span covers everything after
	} {
		if got := s.fullyDegraded(tc.ws, tc.we); got != tc.want {
			t.Errorf("fullyDegraded(%v, %v) = %v, want %v", tc.ws, tc.we, got, tc.want)
		}
	}
}

// A coordinated scheduler's windows are normally exempt from the local
// proportional-share bound (the delay rule skews local shares by
// design). Degraded windows lose the exemption: the same imbalance
// that is legal under coordination must violate once the window is
// fully inside a degraded span.
func TestDegradedWindowChecksLocalShare(t *testing.T) {
	mkState := func(a *Auditor) *schedState {
		s := &schedState{a: a, sfq: true, coordinated: true}
		a.scheds = append(a.scheds, s)
		for i, fl := range []struct {
			app iosched.AppID
			svc float64
		}{{"a", 100}, {"b", 0.1}} {
			f := s.flow(iosched.AppIdx(i), fl.app)
			f.service = fl.svc
			f.requests = 10
			f.weight = 1
			f.maxUnit = 0.1
			f.zeroSince = -1 // continuously backlogged
		}
		return s
	}

	// Coordinated and healthy: no local check, no violation.
	a := New(Options{}, shares.NewTree())
	s := mkState(a)
	a.closeWindow()
	if a.Checks()["proportional-share"] != 0 || a.Checks()["proportional-share-degraded"] != 0 {
		t.Errorf("healthy coordinated window ran a local share check: %v", a.Checks())
	}
	if a.ViolationCount() != 0 {
		t.Errorf("healthy coordinated window violated: %v", a.Violations())
	}

	// Same state fully degraded: the local bound applies and the 1000×
	// imbalance breaks it.
	a = New(Options{}, shares.NewTree())
	s = mkState(a)
	s.degraded = []span{{from: 0, to: math.Inf(1)}}
	a.closeWindow()
	if a.Checks()["proportional-share-degraded"] == 0 {
		t.Fatal("degraded window did not run the local share check")
	}
	if a.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1", a.ViolationCount())
	}
	if v := a.Violations()[0]; v.Invariant != "proportional-share-degraded" {
		t.Errorf("invariant = %q, want proportional-share-degraded", v.Invariant)
	}
}

// zeroCoord marks a scheduler as coordinated without ever delaying it:
// the delay rule sees zero remote service, so behavior is identical to
// local SFQ while the auditor applies the coordinated regime.
type zeroCoord struct{}

func (zeroCoord) OtherService(iosched.AppIdx) float64 { return 0 }

// TestRegimeSwitchingEndToEnd runs a real coordinated scheduler
// through degrade → recover and checks the full regime sequence: local
// degraded checks inside the span, cluster total-share checks
// suspended through span + grace, and re-engaged (passing) after.
func TestRegimeSwitchingEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	})
	tree := shares.NewTree()
	sched := sfqd(t, eng, dev, tree, 2)
	sched.SetCoordinator(zeroCoord{})
	au := newShort(Options{CoordinationPeriod: 0.5}, tree)
	au.recovery = 2
	sched.SetProbe(au.Probe(0, 0, trace.DevHDFS, sched))

	const horizon = 8.0
	for _, app := range []iosched.AppID{"a", "b"} {
		app := app
		var issue func()
		issue = func() {
			sched.Submit(&iosched.Request{
				AppIdx: tree.Index(app), Class: iosched.PersistentRead, Size: 1e6,
				Done: iosched.DoneFunc(func(*iosched.Request, float64) {
					if eng.Now() < horizon {
						issue()
					}
				}),
			})
		}
		// Enough outstanding requests that the app's queue never runs
		// dry (an empty queue disqualifies the flow from share checks).
		for i := 0; i < 6; i++ {
			issue()
		}
	}
	// Degraded [0, 3); grace 2 × 0.5 s extends the skip to t = 4.
	au.NoteDegradeStart(0, "d", 0)
	eng.Schedule(3, func() { au.NoteDegradeEnd(0, "d", 3) })

	eng.RunUntil(horizon)
	au.Finish()

	if err := au.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if au.Checks()["proportional-share-degraded"] == 0 {
		t.Error("no degraded local-share checks in windows [0,3)")
	}
	if au.Checks()["total-proportional-share-skipped"] == 0 {
		t.Error("cluster check never suspended during the degraded span")
	}
	if au.Checks()["total-proportional-share"] == 0 {
		t.Error("cluster check never re-engaged after the recovery grace")
	}
}
