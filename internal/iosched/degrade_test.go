package iosched

import (
	"math"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// These tests pin down the graceful-degradation contract the
// coordination plane relies on: SuspendCoordination cancels DSFQ tag
// debt (pure local fairness for the outage), and ResumeCoordination
// re-snapshots remote totals instead of charging the outage's delta.

func newDegradeSFQ(t *testing.T) (*sim.Engine, *SFQ, *storage.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	return eng, mustSFQD(t, eng, dev, 1), dev
}

func TestSuspendCoordinationClampsQueuedTagDebt(t *testing.T) {
	_, s, dev := newDegradeSFQ(t)
	coord := &fakeCoord{other: map[AppID]float64{"A": 0}}
	s.SetCoordinator(coord)

	submit := func() *Request {
		r := &Request{AppIdx: weigh("A", 1), Class: PersistentRead, Size: 1e6}
		s.Submit(r)
		return r
	}
	c := dev.Cost(PersistentRead.OpKind(), 1e6)

	r0 := submit() // dispatches (depth 1), snapshots other=0, vtime=0
	r1 := submit() // queued, startTag = c
	if r0.StartTag() != 0 || r1.StartTag() != c {
		t.Fatalf("setup tags: r0=%v r1=%v, want 0 and %v", r0.StartTag(), r1.StartTag(), c)
	}

	const remote = 1e9
	coord.other["A"] = remote
	r2 := submit() // queued with the full remote delta as tag debt
	if want := 2*c + remote; math.Abs(r2.StartTag()-want) > 1e-6 {
		t.Fatalf("pre-suspend r2 start tag = %v, want %v", r2.StartTag(), want)
	}

	s.SuspendCoordination()
	if !s.CoordinationSuspended() {
		t.Fatal("CoordinationSuspended() = false after suspend")
	}
	// Replay in arrival order from vtime=0: r1 clamps to 0, r2 stacks
	// fairly behind it at c. The 1e9 debt is gone.
	if r1.StartTag() != 0 {
		t.Errorf("post-suspend r1 start tag = %v, want 0", r1.StartTag())
	}
	if r2.StartTag() != c {
		t.Errorf("post-suspend r2 start tag = %v, want %v", r2.StartTag(), c)
	}
	if r2.FinishTag() != 2*c {
		t.Errorf("post-suspend r2 finish tag = %v, want %v", r2.FinishTag(), 2*c)
	}

	// Idempotent: a second suspend must not move tags again.
	s.SuspendCoordination()
	if r2.StartTag() != c {
		t.Errorf("second suspend moved r2 start tag to %v", r2.StartTag())
	}

	// While suspended the delay rule is off entirely: new arrivals are
	// tagged locally even though remote totals keep growing. (r0's
	// finish was clamped to vtime too, so the chain restarts from r1.)
	coord.other["A"] = 2 * remote
	r3 := submit()
	if want := r2.FinishTag(); math.Abs(r3.StartTag()-want) > 1e-6 {
		t.Errorf("suspended r3 start tag = %v, want %v (local-only)", r3.StartTag(), want)
	}
}

func TestResumeCoordinationReSnapshotsRemoteTotals(t *testing.T) {
	_, s, _ := newDegradeSFQ(t)
	coord := &fakeCoord{other: map[AppID]float64{"A": 0}}
	s.SetCoordinator(coord)

	submit := func() *Request {
		r := &Request{AppIdx: weigh("A", 1), Class: PersistentRead, Size: 1e6}
		s.Submit(r)
		return r
	}
	submit() // snapshot other=0

	s.SuspendCoordination()
	coord.other["A"] = 7e8 // outage-accumulated remote service
	s.ResumeCoordination()
	if s.CoordinationSuspended() {
		t.Fatal("CoordinationSuspended() = true after resume")
	}

	// First post-recovery arrival re-snapshots: no delta charged (the
	// suspend also clamped the flow's finish chain to vtime=0).
	r1 := submit()
	if r1.StartTag() != 0 {
		t.Fatalf("post-resume r1 start tag = %v, want 0 (stale-total clamp)", r1.StartTag())
	}
	// The delay rule is back in force from the new snapshot.
	coord.other["A"] = 7e8 + 50
	r2 := submit()
	if want := r1.FinishTag() + 50; math.Abs(r2.StartTag()-want) > 1e-6 {
		t.Errorf("post-resume r2 start tag = %v, want %v (delay rule re-engaged)", r2.StartTag(), want)
	}

	// Resume without suspend is a no-op (must not wipe snapshots).
	s.ResumeCoordination()
	coord.other["A"] = 7e8 + 80
	r3 := submit()
	if want := r2.FinishTag() + 30; math.Abs(r3.StartTag()-want) > 1e-6 {
		t.Errorf("redundant resume reset snapshots: r3 start tag = %v, want %v", r3.StartTag(), want)
	}
}

func TestSuspendWithoutCoordinatorIsSafe(t *testing.T) {
	_, s, _ := newDegradeSFQ(t)
	s.SuspendCoordination()
	s.ResumeCoordination()
	r := &Request{AppIdx: weigh("A", 1), Class: PersistentRead, Size: 1e6}
	s.Submit(r)
	if r.StartTag() != 0 {
		t.Errorf("start tag = %v, want 0", r.StartTag())
	}
}

// TestSuspendPreservesDispatchOrder verifies the replay re-heaps the
// queue: after clamping, requests still pop in start-tag order and the
// backlog drains under pure local fairness.
func TestSuspendPreservesDispatchOrder(t *testing.T) {
	eng, s, _ := newDegradeSFQ(t)
	coord := &fakeCoord{other: map[AppID]float64{"A": 0, "B": 0}}
	s.SetCoordinator(coord)

	var order []AppID
	submit := func(app AppID) {
		s.Submit(&Request{
			AppIdx: weigh(app, 1), Class: PersistentRead, Size: 1e6,
			Done: DoneFunc(func(*Request, float64) { order = append(order, app) }),
		})
	}
	submit("A") // dispatches; snapshots
	submit("B") // queued; snapshots
	// Hand A a huge delay, then interleave arrivals.
	coord.other["A"] = 1e9
	submit("A")
	submit("B")
	submit("A")

	s.SuspendCoordination()
	eng.Run()

	// With the debt cancelled the replayed tags alternate fairly; the
	// delayed A requests must not all be pushed to the back.
	want := []AppID{"A", "B", "A", "B", "A"}
	if len(order) != len(want) {
		t.Fatalf("completed %d requests, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}
