package sim

import (
	"math"
	"testing"
)

// FuzzEngineOrder differentially fuzzes the engine against orderModel,
// an independent reference kept in this file: a plain slice of pending
// (time, seq, daemon) entries whose next event is found by a linear
// scan. An identical randomized schedule/cancel/reschedule/advance
// script must produce the same observations on both — every fire (event
// ID and clock), and after every script step the executor's result,
// Now, Pending, Live and Fired.
//
// The script decoder spreads delays across the regimes the simulator
// produces — same-instant runs, sub-millisecond nears, mid horizons and
// far horizons — plus negative, NaN and infinite delays and absolute
// times before Now, which both sides must clamp. It advances through
// all three executors (RunBefore windows, RunUntil, Step). Callbacks
// schedule children, cancel other events and call Halt, so mutation
// also happens while an executor is running.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x01, 0x52, 0x02, 0xa4, 0x2d, 0x40, 0x03, 0x01, 0x2f, 0x80})
	f.Add([]byte{0x08, 0xff, 0x09, 0xfe, 0x0a, 0xfd, 0x2d, 0xff, 0x2e, 0x2f, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d, 0x01, 0x03, 0x00, 0x03, 0x01})
	f.Add([]byte{0x10, 0xc3, 0x11, 0xc4, 0x04, 0x00, 0x91, 0x2d, 0xf0, 0x2e, 0x2e, 0x2e})
	// A same-instant tie between an event scheduled far ahead and one
	// scheduled after the clock moved close. See
	// TestWheelSameTickCrossLevelTie for the distilled case.
	f.Add([]byte("000000000000&0000000070000000000&000000071z00000000&00\xee700000000000711000700000000&0000000000000000700000"))
	// Clamping: NaN, negative and infinite delays, an absolute time
	// before Now, and a daemon-only tail.
	f.Add([]byte{0x00, 0xfc, 0x02, 0xf8, 0x01, 0xf4, 0x0f, 0x05, 0x0a, 0xfc, 0x03, 0xf8, 0x17, 0x01, 0x06, 0x3f})
	// RunUntil over a daemon with no live work, then a NaN and an
	// earlier absolute time.
	f.Add([]byte{0x03, 0x05, 0x0f, 0x01, 0x01, 0x02, 0xfc, 0x02, 0xf8, 0x06, 0x10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		got := runOrderScript(engineTarget{NewEngine()}, ops)
		want := runOrderScript(&orderModel{}, ops)
		if len(got) != len(want) {
			t.Fatalf("engine made %d observations, reference model %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("observation %d diverged: engine %+v, reference model %+v", k, got[k], want[k])
			}
		}
	})
}

// orderTarget is what an order script drives: the engine or the model.
// add schedules fn by delay (how 'd'), as a daemon by delay ('D'), or
// at an absolute time ('a'), and returns a cancel func for it.
type orderTarget interface {
	add(how byte, x float64, fn func()) (cancel func())
	Now() float64
	Pending() int
	Live() int
	Fired() uint64
	Halt()
	RunBefore(limit float64) int
	RunUntil(limit float64) float64
	Step() bool
}

type engineTarget struct{ *Engine }

func (e engineTarget) add(how byte, x float64, fn func()) func() {
	var h Event
	switch how {
	case 'd':
		h = e.Schedule(x, fn)
	case 'D':
		h = e.ScheduleDaemon(x, fn)
	default:
		h = e.At(x, fn)
	}
	return func() { e.Cancel(h) }
}

// orderObs is one observation of a script run: a fire ('f', with the
// event's ID) or the state after a script step ('s', with the step's
// result in n).
type orderObs struct {
	kind          byte
	n             int
	now           float64
	pending, live int
	fired         uint64
}

// runOrderScript decodes ops into calls on sim and returns what it saw.
// Every decision is a function of the script and of event IDs, which
// are assigned in scheduling order, so two targets with the same
// ordering rules make identical observations.
func runOrderScript(sim orderTarget, ops []byte) []orderObs {
	var log []orderObs
	var cancels []func()
	id := 0
	var schedule func(how byte, x float64)
	schedule = func(how byte, x float64) {
		myID := id
		id++
		fn := func() {
			log = append(log, orderObs{kind: 'f', n: myID, now: sim.Now()})
			// Every third event schedules a child, every fifth cancels an
			// earlier event (perhaps one due at this same instant, perhaps
			// one already gone), and every thirteenth halts RunUntil.
			if myID%3 == 0 {
				schedule('d', float64(myID%7)*0.37)
			}
			if myID%5 == 1 {
				cancels[(myID*7)%len(cancels)]()
			}
			if myID%13 == 4 {
				sim.Halt()
			}
		}
		cancels = append(cancels, sim.add(how, x, fn))
	}
	decodeDelay := func(d byte) float64 {
		switch d % 4 {
		case 0:
			switch d >> 2 {
			case 63:
				return math.NaN()
			case 62:
				return -2.5
			case 61:
				return math.Inf(1)
			}
			return 0 // same instant
		case 1:
			return float64(d>>2) * 1e-3 // near
		case 2:
			return float64(d>>2) * 1.9 // mid
		default:
			return 800 + float64(d>>2)*41.7 // far
		}
	}
	i := 0
	next := func() byte {
		if i >= len(ops) {
			return 0
		}
		b := ops[i]
		i++
		return b
	}
	step := func(n int) {
		log = append(log, orderObs{kind: 's', n: n, now: sim.Now(),
			pending: sim.Pending(), live: sim.Live(), fired: sim.Fired()})
	}
	for i < len(ops) {
		b := next()
		n := 0
		switch b % 8 {
		case 0, 1:
			schedule('d', decodeDelay(next()))
		case 2: // absolute time: a negative or NaN delay lands before Now
			schedule('a', sim.Now()+decodeDelay(next()))
		case 3:
			schedule('D', decodeDelay(next()))
		case 4: // cancel a (possibly stale) handle
			if len(cancels) > 0 {
				cancels[int(next())%len(cancels)]()
			}
		case 5: // reschedule: cancel + fresh schedule
			if len(cancels) > 0 {
				cancels[int(next())%len(cancels)]()
			}
			schedule('d', decodeDelay(next()))
		case 6: // one conservative-sync window
			n = sim.RunBefore(sim.Now() + float64(next())*0.11)
		case 7:
			if next()%2 == 0 {
				if sim.Step() {
					n = 1
				}
			} else if sim.RunUntil(sim.Now()+float64(next())*2.3) != sim.Now() {
				n = -1 // RunUntil must return the clock it leaves
			}
		}
		step(n)
	}
	// Drain everything left at a finite time, far timers included.
	step(sim.RunBefore(1e12))
	return log
}

// orderModel is the reference the engine is fuzzed against. It shares
// no code with the engine: pending events sit unordered in a slice and
// the next one is found by a linear scan for the least (time, seq).
type orderModel struct {
	now     float64
	seq     uint64
	fired   uint64
	halted  bool
	pending []*modelEvent
}

type modelEvent struct {
	t      float64
	seq    uint64
	daemon bool
	fn     func()
}

func (m *orderModel) add(how byte, x float64, fn func()) func() {
	t := x
	if how != 'a' {
		if !(x >= 0) { // negative or NaN delay
			x = 0
		}
		t = m.now + x
	}
	if !(t >= m.now) { // before Now, or NaN
		t = m.now
	}
	ev := &modelEvent{t: t, seq: m.seq, daemon: how == 'D', fn: fn}
	m.seq++
	m.pending = append(m.pending, ev)
	return func() {
		if k := m.find(ev); k >= 0 {
			m.remove(k)
		}
	}
}

func (m *orderModel) find(ev *modelEvent) int {
	for k, p := range m.pending {
		if p == ev {
			return k
		}
	}
	return -1
}

func (m *orderModel) remove(k int) {
	last := len(m.pending) - 1
	m.pending[k] = m.pending[last]
	m.pending = m.pending[:last]
}

// head returns the index of the least (time, seq) entry, or -1.
func (m *orderModel) head() int {
	best := -1
	for k, p := range m.pending {
		if best < 0 || p.t < m.pending[best].t ||
			(p.t == m.pending[best].t && p.seq < m.pending[best].seq) {
			best = k
		}
	}
	return best
}

// fire removes the head before running it, so a callback cannot cancel
// the event that is running.
func (m *orderModel) fire(k int) {
	ev := m.pending[k]
	m.remove(k)
	m.now = ev.t
	m.fired++
	ev.fn()
}

func (m *orderModel) Now() float64  { return m.now }
func (m *orderModel) Pending() int  { return len(m.pending) }
func (m *orderModel) Fired() uint64 { return m.fired }
func (m *orderModel) Halt()         { m.halted = true }

func (m *orderModel) Live() int {
	n := 0
	for _, p := range m.pending {
		if !p.daemon {
			n++
		}
	}
	return n
}

// RunBefore fires everything strictly before limit, daemons included,
// whatever the live count, and leaves Now at the last fire.
func (m *orderModel) RunBefore(limit float64) int {
	n := 0
	for k := m.head(); k >= 0 && m.pending[k].t < limit; k = m.head() {
		m.fire(k)
		n++
	}
	return n
}

// RunUntil fires everything at or before limit while live work remains
// and stops after a Halt; unless halted, a finite limit ends as Now.
func (m *orderModel) RunUntil(limit float64) float64 {
	m.halted = false
	for k := m.head(); k >= 0 && m.Live() > 0 && m.pending[k].t <= limit; k = m.head() {
		m.fire(k)
		if m.halted {
			return m.now
		}
	}
	if !math.IsInf(limit, 1) && limit > m.now {
		m.now = limit
	}
	return m.now
}

// Step fires the head, daemon or not, ignoring Halt and the live count.
func (m *orderModel) Step() bool {
	k := m.head()
	if k < 0 {
		return false
	}
	m.fire(k)
	return true
}
