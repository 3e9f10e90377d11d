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

// event is the engine-owned record of one scheduled callback. Records
// are recycled through a generation-counted freelist once they fire or
// are cancelled, so steady-state scheduling does not allocate; callers
// hold Event handles, never *event.
type event struct {
	time   float64
	fn     func()
	seq    uint64
	gen    uint64
	next   *event // intrusive links while resident in a timing-wheel slot
	prev   *event
	index  int32 // position in Engine.queue when >= 0; see wheel.go markers
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
	queue  []*event // min-heap ordered by (time, seq); near-term events
	free   []*event // recycled records; see event doc
	fired  uint64
	halted bool
	live   int // pending non-daemon events
	// guard, when non-nil, is invoked on every mutating entry point
	// (schedule, cancel). The sharded fabric installs an ownership
	// check here in debug mode; nil costs one branch.
	guard func()
	// w holds far-future events O(1) until the clock needs them; see
	// wheel.go. noWheel forces every event through the heap — the
	// pure-heap reference the differential fuzzer compares against.
	w            wheel
	noWheel      bool
	batch        []*event // reusable same-instant dispatch buffer (RunBefore)
	batchPending int      // drained-but-unfired batch events
}

// NewEngine returns an engine with virtual time 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.w.low = math.Inf(1)
	return e
}

// disableWheel routes every schedule through the inline min-heap,
// turning the engine into the pure-heap reference implementation the
// differential fuzzer checks the hybrid against.
func (e *Engine) disableWheel() { e.noWheel = true }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far, a useful progress
// and complexity metric for experiments.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled-but-unfired events. Cancelled
// events are removed from the queue immediately, so they never count.
func (e *Engine) Pending() int { return len(e.queue) + e.w.count + e.batchPending }

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
	e.wheelInsert(ev)
	return Event{ev: ev, gen: ev.gen, time: t}
}

// recycle retires a record that fired or was cancelled. Bumping the
// generation first invalidates every outstanding handle to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.next = nil
	e.free = append(e.free, ev)
}

// Cancel prevents a scheduled event from firing, removing it from the
// queue or its wheel slot immediately (no tombstones). Cancelling an
// event that already fired or was already cancelled is a no-op, as is
// cancelling the zero handle, so callers can cancel optional timers
// unconditionally. An event drained into the current RunBefore batch
// but not yet fired is still cancellable: its record is skipped when
// the batch reaches it.
func (e *Engine) Cancel(h Event) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index == idxFired {
		return
	}
	if e.guard != nil {
		e.guard()
	}
	if !ev.daemon {
		e.live--
	}
	switch {
	case ev.index >= 0:
		e.heapRemove(int(ev.index))
		e.recycle(ev)
	case ev.index == idxBatch:
		// Mid-batch: the record sits in the dispatch buffer. Invalidate
		// the handle now; the batch loop recycles the record in place.
		ev.gen++
		ev.fn = nil
		e.batchPending--
	default:
		e.wheelRemove(ev)
	}
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
	for e.live > 0 && e.settleHead() {
		next := e.queue[0]
		if next.time > limit {
			break
		}
		e.heapPopMin()
		e.now = next.time
		e.fired++
		if !next.daemon {
			e.live--
		}
		fn := next.fn
		// Recycle before running fn: the record is dead the moment it is
		// popped, and recycling first lets fn's own scheduling reuse it.
		e.recycle(next)
		fn()
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

// PeekTime returns the time of the earliest pending event, or false if
// none is pending. It may flush timing-wheel slots into the heap to
// resolve the head exactly; the flush is order-neutral, so nothing is
// observable beyond this call's cost.
func (e *Engine) PeekTime() (float64, bool) {
	if !e.settleHead() {
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
// Dispatch is batched: the whole same-instant run at the head is
// drained from the heap in one pass and fired in sequence order, so a
// window's worth of simultaneous completions costs one heap drain
// instead of interleaved pop/sift cycles. Events a callback schedules
// for the current instant carry higher sequence numbers and fire after
// the drained batch, exactly as they would under one-at-a-time popping;
// events it cancels mid-batch are skipped.
func (e *Engine) RunBefore(limit float64) int {
	if len(e.queue) == 0 && e.w.count == 0 {
		return 0 // empty window: nothing pending at any horizon
	}
	n := 0
	for e.settleHead() {
		t := e.queue[0].time
		if t >= limit {
			break
		}
		// Drain the full same-instant run. settleHead has flushed every
		// wheel slot at or below t, so the heap holds the complete run.
		batch := e.batch[:0]
		for len(e.queue) > 0 && e.queue[0].time == t {
			ev := e.heapPopMin()
			ev.index = idxBatch
			batch = append(batch, ev)
		}
		e.batch = batch
		e.batchPending = len(batch)
		e.now = t
		for i, ev := range batch {
			batch[i] = nil
			if ev.fn == nil { // cancelled mid-batch
				e.recycle(ev)
				continue
			}
			e.batchPending--
			e.fired++
			if !ev.daemon {
				e.live--
			}
			fn := ev.fn
			e.recycle(ev)
			fn()
			n++
		}
		e.batch = batch[:0]
	}
	return n
}

// Step executes exactly one event if one is pending and reports whether
// an event was executed. Step ignores Halt: a pending Halt from a
// previous run does not suppress it, and it executes daemon events even
// when no live work remains — it is a debugging aid, not a scheduling
// primitive.
func (e *Engine) Step() bool {
	if !e.settleHead() {
		return false
	}
	ev := e.heapPopMin()
	e.now = ev.time
	e.fired++
	if !ev.daemon {
		e.live--
	}
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
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
	min.index = -1
	return min
}

// heapRemove removes the event at queue position i.
func (e *Engine) heapRemove(i int) {
	q := e.queue
	last := len(q) - 1
	ev := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = int32(i)
	}
	q[last] = nil
	e.queue = q[:last]
	if i < last {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	ev.index = -1
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
