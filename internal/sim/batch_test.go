package sim

import (
	"math"
	"testing"
)

// TestRunBeforeBatchMidCancel: a callback early in a same-instant run
// cancels a later member, which must be skipped — and the cancel must
// keep Pending/Live exact.
func TestRunBeforeBatchMidCancel(t *testing.T) {
	e := NewEngine()
	var fired []string
	var hC Event
	e.Schedule(1, func() {
		fired = append(fired, "A")
		e.Cancel(hC) // C is due at this same instant
	})
	e.Schedule(1, func() { fired = append(fired, "B") })
	hC = e.Schedule(1, func() { fired = append(fired, "C") })
	e.Schedule(1, func() { fired = append(fired, "D") })

	n := e.RunBefore(2)
	if n != 3 {
		t.Fatalf("RunBefore fired %d events, want 3", n)
	}
	want := []string{"A", "B", "D"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("after batch: pending=%d live=%d, want 0/0", e.Pending(), e.Live())
	}
}

// TestRunBeforeBatchSameInstantSchedule: events a callback schedules
// for the current instant carry higher sequence numbers and fire within
// the same RunBefore call, after every event already queued for that
// instant.
func TestRunBeforeBatchSameInstantSchedule(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.Schedule(1, func() {
		fired = append(fired, "A")
		e.Schedule(0, func() { fired = append(fired, "A-child") })
	})
	e.Schedule(1, func() { fired = append(fired, "B") })
	if n := e.RunBefore(2); n != 3 {
		t.Fatalf("RunBefore fired %d events, want 3", n)
	}
	want := []string{"A", "B", "A-child"}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestRunBeforeEmptyWindowFastPath: a window with nothing pending at
// any horizon returns immediately without touching the clock, and a
// window strictly below every pending timer fires nothing and leaves
// the pending population intact.
func TestRunBeforeEmptyWindowFastPath(t *testing.T) {
	e := NewEngine()
	if n := e.RunBefore(1e9); n != 0 {
		t.Fatalf("empty engine fired %d events", n)
	}
	if e.Now() != 0 {
		t.Fatalf("empty window moved the clock to %v", e.Now())
	}
	// A window below the far timers must not disturb them.
	e.Schedule(500, func() {})
	e.Schedule(900, func() {})
	before := e.Pending()
	for w := 0; w < 100; w++ {
		if n := e.RunBefore(float64(w)); n != 0 {
			t.Fatalf("window %d fired %d events below every timer", w, n)
		}
	}
	if e.Pending() != before {
		t.Fatalf("empty windows changed pending: %d -> %d", before, e.Pending())
	}
	if n := e.RunBefore(1000); n != 2 {
		t.Fatalf("final window fired %d events, want 2", n)
	}
}

// TestPeekTimeResolvesWheelHead: PeekTime must report the exact head
// whatever order far and near timers were scheduled in, and report
// absence once everything fired.
func TestPeekTimeResolvesWheelHead(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on empty engine reported an event")
	}
	e.Schedule(700, func() {})
	e.Schedule(300, func() {})
	e.Schedule(0.5, func() {})
	if tt, ok := e.PeekTime(); !ok || tt != 0.5 {
		t.Fatalf("PeekTime = %v,%v, want 0.5,true", tt, ok)
	}
	e.RunUntil(0.5)
	if tt, ok := e.PeekTime(); !ok || tt != 300 {
		t.Fatalf("PeekTime after first fire = %v,%v, want 300,true", tt, ok)
	}
	e.Run()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime after drain reported an event")
	}
}

// TestGuardCoversBatchMutations: the SetGuard hook (the fabric's
// single-owner check at shard handoff) must fire on every mutating
// entry — schedules and cancels issued by RunBefore callbacks
// included — and never on dispatch itself.
func TestGuardCoversBatchMutations(t *testing.T) {
	e := NewEngine()
	var hB Event
	e.Schedule(1, func() {
		e.Cancel(hB)                   // same-instant cancel: guarded
		e.Schedule(0.25, func() {})    // in-callback schedule: guarded
		e.ScheduleDaemon(2, func() {}) // daemon schedule: guarded
	})
	hB = e.Schedule(1, func() { t.Fatal("cancelled event fired") })

	guarded := 0
	e.SetGuard(func() { guarded++ })
	// A fires at t=1 and its in-callback schedule lands at t=1.25,
	// still inside the window — so 2 events fire.
	if n := e.RunBefore(1.5); n != 2 {
		t.Fatalf("RunBefore fired %d events, want 2", n)
	}
	if guarded != 3 {
		t.Fatalf("guard invoked %d times, want 3 (cancel + 2 schedules)", guarded)
	}
	// A guard that panics models the fabric's ownership violation: a
	// cross-shard schedule must surface, not corrupt the queue.
	e.SetGuard(func() { panic("cross-shard mutation") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("guarded schedule did not panic")
			}
		}()
		e.Schedule(1, func() {})
	}()
	e.SetGuard(nil)
	e.Run()
}

// TestRunBeforeBatchDaemonAccounting: same-instant daemons fire under
// RunBefore regardless of the live count, and a cancelled daemon does
// not disturb Live.
func TestRunBeforeBatchDaemonAccounting(t *testing.T) {
	e := NewEngine()
	fired := 0
	var hd Event
	e.ScheduleDaemon(1, func() { fired++; e.Cancel(hd) })
	hd = e.ScheduleDaemon(1, func() { fired++ })
	e.ScheduleDaemon(1, func() { fired++ })
	if e.Live() != 0 {
		t.Fatalf("daemons counted as live: %d", e.Live())
	}
	if n := e.RunBefore(2); n != 2 {
		t.Fatalf("RunBefore fired %d daemon events, want 2", n)
	}
	if fired != 2 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want 2/0", fired, e.Pending())
	}
}

// TestWheelSameTickCrossLevelTie: two events at the same absolute time,
// one scheduled from far away and one scheduled after the clock moved
// close, must fire in scheduling order, after everything earlier. The
// instant is the one at which an earlier timing-wheel engine filed the
// two at different levels and fired the far one late (found by
// FuzzEngineOrder; the triggering input is in testdata). It stays as a
// regression test of the (time, seq) order.
func TestWheelSameTickCrossLevelTie(t *testing.T) {
	e := NewEngine()
	var fired []int
	// 118784/64 s = 1856 s, a dyadic instant both schedules reach
	// exactly.
	tie := 118784 * (1.0 / 64)
	e.At(tie, func() { fired = append(fired, 0) }) // far: higher level
	e.Schedule(tie-1.1, func() { fired = append(fired, 1) })
	// An event between where the clock stops below and the tie.
	e.At(tie-0.5, func() { fired = append(fired, 3) })
	e.RunUntil(tie - 1.1) // the clock is now close to the tie
	// Scheduled near.
	e.At(tie, func() { fired = append(fired, 2) })
	e.Run()
	want := []int{1, 3, 0, 2}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("same-tick cross-level tie fired out of order: %v, want %v", fired, want)
		}
	}
}

// TestRunBeforeClockStaysAtLastEvent: unlike RunUntil, RunBefore must
// not advance Now to the limit — the fabric delivers the next window's
// messages anywhere in [Now, limit).
func TestRunBeforeClockStaysAtLastEvent(t *testing.T) {
	e := NewEngine()
	e.Schedule(0.75, func() {})
	e.RunBefore(10)
	if e.Now() != 0.75 {
		t.Fatalf("RunBefore advanced the clock to %v, want 0.75", e.Now())
	}
	e.RunBefore(math.Inf(1))
	if e.Now() != 0.75 {
		t.Fatalf("empty infinite window moved the clock to %v", e.Now())
	}
}
