package audit_test

import (
	"strings"
	"testing"

	"ibis/internal/audit"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// The positive tests prove the auditor stays quiet on correct
// schedulers; this one proves it is not quiet by construction. We feed
// the probe hand-crafted lifecycle streams that break each invariant
// and check that every breach is caught, that the violation cap holds,
// and that Err summarizes without truncating the count.
func TestAuditorDetectsInjectedViolations(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	})
	tree := shares.NewTree()
	sched, err := iosched.NewSFQD(eng, dev, tree, 2) // real SFQ so the full invariant set arms
	if err != nil {
		t.Fatal(err)
	}
	au := audit.New(audit.Options{}, tree)
	p := au.Probe(0, 0, trace.DevHDFS, sched)
	req := &iosched.Request{AppIdx: tree.Index("x"), Class: iosched.PersistentRead, Size: 1e6}

	// 1: negative latency at completion.
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 0.5, Latency: -0.5})
	// 2: negative queue counter.
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeArrive, Time: 1.0, Queued: -1})
	// 3: dispatch overruns the depth bound.
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 1.5, InFlight: 5, Depth: 2})
	// 4: virtual time moves backwards across dispatches.
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 2.0, InFlight: 1, Depth: 2, VTime: 10})
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 2.5, InFlight: 2, Depth: 2, VTime: 5})
	// 5: idle dispatch slots while requests wait (work conservation).
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 3.0, Queued: 3, InFlight: 0, Depth: 2, Latency: 0.1})

	if got := au.ViolationCount(); got != 5 {
		for _, v := range au.Violations() {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("ViolationCount() = %d, want 5 injected breaches", got)
	}
	// Past the 5, enough negative latencies to overflow the 256
	// violations the auditor keeps.
	const injected = 300
	for i := 5; i < injected; i++ {
		p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 3.5, Latency: -0.5})
	}
	if got := au.ViolationCount(); got != injected {
		t.Fatalf("ViolationCount() = %d, want %d", got, injected)
	}
	if got := len(au.Violations()); got != 256 {
		t.Fatalf("retained %d violations, want the cap of 256", got)
	}
	err = au.Err()
	if err == nil {
		t.Fatal("Err() = nil despite violations")
	}
	if !strings.Contains(err.Error(), "300 invariant violation") {
		t.Fatalf("Err() lost the dropped-violation count: %v", err)
	}
	want := []string{"lifecycle", "lifecycle", "depth-bound", "vtime-monotonicity", "work-conservation"}
	for i, v := range au.Violations()[:len(want)] {
		if v.Invariant != want[i] {
			t.Fatalf("violation %d is %q, want %q", i, v.Invariant, want[i])
		}
	}
}

// A probed non-SFQ scheduler must get lifecycle checks only — the SFQ
// invariants are meaningless there and would misfire.
func TestAuditorLifecycleOnlyForUntaggedSchedulers(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	})
	tree := shares.NewTree()
	fifo := iosched.NewFIFO(eng, dev, tree)
	au := audit.New(audit.Options{}, tree)
	fifo.SetProbe(au.Probe(0, 0, trace.DevHDFS, fifo))
	for i := 0; i < 8; i++ {
		fifo.Submit(&iosched.Request{AppIdx: tree.Index("a"), Class: iosched.PersistentRead, Size: 1e6})
	}
	eng.Run()
	au.Finish()
	if err := au.Err(); err != nil {
		t.Fatalf("FIFO run flagged: %v", err)
	}
	checks := au.Checks()
	if checks["lifecycle"] == 0 {
		t.Fatal("lifecycle checks never ran")
	}
	for _, inv := range []string{"start-tag-monotonicity", "tag-consistency", "vtime-monotonicity", "depth-bound", "work-conservation", "proportional-share"} {
		if checks[inv] != 0 {
			t.Fatalf("SFQ invariant %q evaluated %d times on a FIFO scheduler", inv, checks[inv])
		}
	}
}
