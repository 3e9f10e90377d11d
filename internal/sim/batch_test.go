package sim

import (
	"math"
	"testing"
)

// TestRunBeforeBatchMidCancel: a same-instant run is drained as one
// batch; a callback early in the batch cancels a later member, which
// must be skipped — and the cancel must keep Pending/Live exact.
func TestRunBeforeBatchMidCancel(t *testing.T) {
	e := NewEngine()
	var fired []string
	var hC Event
	e.Schedule(1, func() {
		fired = append(fired, "A")
		e.Cancel(hC) // C is already drained into the batch buffer
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

// TestRunBeforeBatchSameInstantSchedule: events a batch callback
// schedules for the current instant carry higher sequence numbers and
// fire within the same RunBefore call, after the drained batch —
// exactly the one-at-a-time order.
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
// window strictly below every wheel-held timer fires nothing and
// leaves the wheel population intact.
func TestRunBeforeEmptyWindowFastPath(t *testing.T) {
	e := NewEngine()
	if n := e.RunBefore(1e9); n != 0 {
		t.Fatalf("empty engine fired %d events", n)
	}
	if e.Now() != 0 {
		t.Fatalf("empty window moved the clock to %v", e.Now())
	}
	// Far timers live in the wheel; a window below them must not
	// disturb them.
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

// TestPeekTimeResolvesWheelHead: PeekTime must resolve the exact head
// even when the earliest event is parked in a far wheel slot, and
// report absence once everything fired.
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
// entry — schedules and cancels issued by batch callbacks included —
// and never on dispatch itself.
func TestGuardCoversBatchMutations(t *testing.T) {
	e := NewEngine()
	var hB Event
	e.Schedule(1, func() {
		e.Cancel(hB)                   // mid-batch cancel: guarded
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

// TestRunBeforeBatchDaemonAccounting: daemons drained into a batch
// fire under RunBefore regardless of the live count, and a cancelled
// daemon does not disturb Live.
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

// TestWheelSameTickCrossLevelTie: two events at the same absolute time
// can be resident at different wheel levels — one filed from far away
// (higher level), one filed after the cursor moved close (level 0).
// When their slot bounds tie, the higher level must cascade before the
// level-0 slot drains; flushing level 0 first advances the cursor past
// the shared tick and strands the higher-level resident, firing it
// late. Regression test for the tie-break in settleHead (found by
// FuzzEngineOrder; the triggering input is in testdata).
func TestWheelSameTickCrossLevelTie(t *testing.T) {
	e := NewEngine()
	var fired []int
	// tick 118784 = 464<<8: exactly a level-boundary tick, so the far
	// and near filings of the same instant land at different levels
	// with identical slot bounds.
	tie := 118784 * wheelTick
	e.At(tie, func() { fired = append(fired, 0) }) // far: higher level
	e.Schedule(tie-1.1, func() { fired = append(fired, 1) })
	// A heap-resident event below the tie keeps settleHead from
	// flushing the tie's slot early — the tie event must still be
	// wheel-resident at a higher level when the near filing arrives.
	e.At(tie-0.5, func() { fired = append(fired, 3) })
	e.RunUntil(tie - 1.1) // the cursor is now within a slot of the tie tick
	// Filed near, at level 0.
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
