// Package sim provides a deterministic discrete-event simulation engine
// and a processor-sharing resource model used as the substrate for the
// IBIS cluster simulator.
//
// Virtual time is measured in float64 seconds. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking
// on a monotonically increasing sequence number), which makes every run
// bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
)

// event is the engine-owned record of one scheduled callback. A pending
// record sits in Engine.queue at position index. Records are recycled
// through a generation-counted freelist once they fire or are
// cancelled, so steady-state scheduling does not allocate; callers hold
// Event handles, never *event.
type event struct {
	time   float64
	fn     func()
	seq    uint64
	gen    uint64
	index  int32 // position in Engine.queue while pending
	daemon bool
}

// Event is a cancellable handle to a scheduled callback. The zero value
// is an inert handle: cancelling it is a no-op and Scheduled reports
// false. Handles are small values, safe to copy and to keep after the
// event fires — the generation counter guards against the underlying
// record being recycled for a later event.
type Event struct {
	ev   *event
	gen  uint64
	time float64
}

// Time returns the virtual time at which the event was scheduled to
// fire. It stays valid after the event fires or is cancelled.
func (h Event) Time() float64 { return h.time }

// Scheduled reports whether the handle still refers to a pending event
// (not yet fired, not cancelled).
func (h Event) Scheduled() bool { return h.ev != nil && h.ev.gen == h.gen }

// Canceled reports whether the event will never fire through this
// handle: it was cancelled, it already fired, or the handle is the zero
// value.
func (h Event) Canceled() bool { return h.ev == nil || h.ev.gen != h.gen }

// Engine is a discrete-event simulation executive. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	queue  []*event // min-heap ordered by (time, seq); every pending event
	free   []*event // recycled records; see event doc
	fired  uint64
	halted bool
	live   int // pending non-daemon events
	// guard, when non-nil, is invoked on every mutating entry point
	// (schedule, cancel). The sharded fabric installs an ownership
	// check here in debug mode; nil costs one branch.
	guard func()
}

// NewEngine returns an engine with virtual time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far, a useful progress
// and complexity metric for experiments.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled-but-unfired events: the size
// of the heap. Cancelled events are removed from it immediately, so they
// never count.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay seconds of virtual time. A negative delay
// is treated as zero. It returns a cancellable handle.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times before Now are clamped to
// Now (the event fires "immediately", after already-queued events for the
// current instant).
func (e *Engine) At(t float64, fn func()) Event {
	return e.schedule(t, fn, false)
}

// ScheduleDaemon is like Schedule, but the event does not keep the
// simulation alive: Run terminates once only daemon events remain.
// Periodic housekeeping (controller ticks, broker exchanges, metric
// sampling) should use daemon events so a simulation ends when the
// workload does.
func (e *Engine) ScheduleDaemon(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.schedule(e.now+delay, fn, true)
}

func (e *Engine) schedule(t float64, fn func(), daemon bool) Event {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if e.guard != nil {
		e.guard()
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.time = t
	ev.fn = fn
	ev.seq = e.seq
	ev.daemon = daemon
	e.seq++
	if !daemon {
		e.live++
	}
	e.heapPush(ev)
	return Event{ev: ev, gen: ev.gen, time: t}
}

// recycle retires a record that fired or was cancelled. Bumping the
// generation first invalidates every outstanding handle to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Cancel prevents a scheduled event from firing, removing it from the
// heap immediately (no tombstones). Cancelling an event that already
// fired or was already cancelled is a no-op, as is cancelling the zero
// handle, so callers can cancel optional timers unconditionally. A
// record is recycled (its generation bumped) before its callback runs,
// so a callback cancelling its own handle is a no-op too.
func (e *Engine) Cancel(h Event) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return
	}
	if e.guard != nil {
		e.guard()
	}
	if !ev.daemon {
		e.live--
	}
	e.heapRemove(int(ev.index))
	e.recycle(ev)
}

// Halt stops the currently executing Run/RunUntil after the current event
// callback returns.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue is empty. It returns the final
// virtual time.
func (e *Engine) Run() float64 {
	return e.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= limit. Events exactly at limit
// are executed. It returns the final virtual time.
//
// Clock semantics: with a finite limit, RunUntil always leaves Now at
// the limit unless Halt was called — even when it stops early because
// the queue drained or only daemon events remain — so callers can
// compute rates over the full [start, limit] horizon. After Halt, and
// after Run (infinite limit), Now is the time of the last executed
// event.
func (e *Engine) RunUntil(limit float64) float64 {
	e.halted = false
	for e.live > 0 && len(e.queue) > 0 && e.queue[0].time <= limit {
		e.fireNext()
		if e.halted {
			return e.now
		}
	}
	// Out of eligible work: the horizon was reached, the queue drained,
	// or only daemon events remain. Advance the clock to a finite
	// horizon so the whole interval is accounted for.
	if !math.IsInf(limit, 1) && limit > e.now {
		e.now = limit
	}
	return e.now
}

// Live returns the number of pending non-daemon events.
func (e *Engine) Live() int { return e.live }

// SetGuard installs fn on every mutating entry point (schedule,
// cancel); nil removes it. The sharded fabric uses this for its
// debug-build single-owner check.
func (e *Engine) SetGuard(fn func()) { e.guard = fn }

// PeekTime returns the time of the earliest pending event (the heap
// head), or false if none is pending.
func (e *Engine) PeekTime() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].time, true
}

// RunBefore executes every event with time strictly less than limit —
// daemon events included, regardless of the live count — and returns
// how many fired. Unlike RunUntil it never advances the clock to the
// limit: Now stays at the last executed event, so a later window can
// deliver work anywhere in [Now, limit). This is the intra-window
// executor of the sharded conservative-sync fabric; ordinary callers
// want Run or RunUntil.
//
// Events pop one at a time, so events a callback schedules for the
// current instant fire after those already queued for it, and events it
// cancels leave the heap before they can fire.
func (e *Engine) RunBefore(limit float64) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].time < limit {
		e.fireNext()
		n++
	}
	return n
}

// Step executes exactly one event if one is pending and reports whether
// an event was executed. Step ignores Halt: a pending Halt from a
// previous run does not suppress it, and it executes daemon events even
// when no live work remains — it is a debugging aid, not a scheduling
// primitive.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fireNext()
	return true
}

// fireNext pops the earliest event, advances the clock to it and runs
// its callback: the one dispatch path of RunUntil, RunBefore and Step.
func (e *Engine) fireNext() {
	ev := e.heapPopMin()
	e.now = ev.time
	e.fired++
	if !ev.daemon {
		e.live--
	}
	fn := ev.fn
	// Recycle before running fn: the record is dead the moment it is
	// popped, and recycling first lets fn's own scheduling reuse it.
	e.recycle(ev)
	fn()
}

// String implements fmt.Stringer for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%.3fs pending=%d fired=%d}", e.now, e.Pending(), e.fired)
}

// --- specialized event min-heap, ordered by (time, seq) ---
//
// A hand-rolled heap over []*event avoids container/heap's interface
// boxing and per-op indirect calls; with the freelist above it makes the
// event loop allocation-free in steady state.

func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.index = int32(len(e.queue))
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// heapPopMin removes and returns the earliest event.
func (e *Engine) heapPopMin() *event {
	q := e.queue
	min := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	e.queue = q[:last]
	if last > 0 {
		q[0].index = 0
		e.siftDown(0)
	}
	return min
}

// heapRemove removes the event at queue position i.
func (e *Engine) heapRemove(i int) {
	q := e.queue
	last := len(q) - 1
	q[i] = q[last]
	q[last] = nil
	e.queue = q[:last]
	if i < last {
		q[i].index = int32(i)
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores heap order below i, reporting whether ev moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
	return i > start
}
