// Sharded parallel simulation: a Fabric partitions a model across
// several Engines ("shards") and advances them concurrently under
// conservative synchronization.
//
// The protocol is classic barrier-windowed conservative PDES. Let L be
// the fabric lookahead — the minimum virtual latency of any cross-shard
// interaction. Each round the fabric computes T, the earliest pending
// event or undelivered message anywhere, and executes every shard
// independently over the window [T, T+L). Any message posted at time
// s ∈ [T, T+L) is delivered no earlier than s+L ≥ T+L, i.e. strictly
// after the window, so no shard can receive an event inside a window it
// is already executing: shards never see each other mid-window and can
// run on separate goroutines.
//
// Determinism is by construction, independent of how many worker
// goroutines execute the windows:
//
//   - the logical shard topology and the window schedule are pure
//     functions of the model, not of the worker count;
//   - within a window each shard's engine is single-owner and executes
//     its own (time, seq)-ordered queue exactly as a serial run would;
//   - at each barrier, pending messages are delivered in the total
//     order (deliverTime, srcShard, srcSeq), so the destination
//     engine's sequence numbers — and therefore all later tie-breaks —
//     are identical whether the previous window ran on 1 worker or 16.
//
// A run with Workers: 1 is therefore bit-identical to one with
// Workers: N; the tests pin this with trace digests.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// fabricMsg is one timestamped inter-shard message.
type fabricMsg struct {
	deliver float64 // absolute delivery time at the destination
	src     int32
	dst     int32
	daemon  bool
	seq     uint64 // per-source sequence, the deterministic tie-break
	fn      func()
}

// FabricOptions configure NewFabric.
type FabricOptions struct {
	// Workers bounds how many shards execute a window concurrently.
	// 0 or 1 runs every window inline on the calling goroutine — the
	// serial mode parallel runs must be bit-identical to.
	Workers int
	// Debug enables the single-owner check: any Schedule/Cancel/Post
	// against a shard's engine while a window is executing and that
	// shard is not the one running panics instead of racing.
	Debug bool
}

// FabricStats counts fabric activity for diagnostics and tests.
type FabricStats struct {
	// Windows is the number of synchronization windows executed;
	// ParallelWindows the subset dispatched to the worker pool.
	Windows, ParallelWindows uint64
	// Messages is the number of cross-shard messages delivered.
	Messages uint64
	// MaxPending is the high-water mark of undelivered messages.
	MaxPending int
}

// Fabric owns a fixed set of shard engines and the conservative
// synchronization between them. Create one with NewFabric, wire the
// model so every cross-shard interaction goes through Shard.Post, then
// call Run.
type Fabric struct {
	shards    []*Shard
	lookahead float64
	workers   int
	debug     bool

	// Per-edge latency bounds. outLat[s] is the minimum virtual latency
	// of any message LEAVING shard s (≥ lookahead; Post clamps to it),
	// and minOut the fabric-wide minimum. When any shard's bound exceeds
	// the global lookahead (nonUniform), the window end is computed from
	// the per-shard bounds — see RunUntil — instead of the single global
	// clamp, widening windows around shards that only talk over slow
	// edges. boundHeap mirrors nextHeap with entries keyed by
	// next-event-time + outLat, sharing nextStamp invalidation.
	outLat     []float64
	minOut     float64
	nonUniform bool
	boundHeap  entryHeap

	pending  msgHeap // undelivered messages, min-heap on (deliver, src, seq)
	liveMsgs int     // pending non-daemon messages
	inWindow atomic.Int32

	// Skew-friendly window accounting. With thousands of hollow shards
	// only a handful are active in any window, so the coordinator must
	// not scan every shard per window. nextHeap is a lazy min-heap of
	// (earliest event time, shard) entries — refreshNext pushes a fresh
	// entry and bumps the shard's stamp, invalidating older ones, which
	// are discarded when popped. liveSum tracks the cluster-wide
	// non-daemon event count incrementally via per-shard deltas. Both
	// are rebuilt from scratch at every RunUntil entry, the only point
	// where external callers may have scheduled work at a barrier.
	nextHeap  entryHeap
	nextStamp []uint32
	prevLive  []int
	liveSum   int

	// Window dispatch. The coordinator publishes windowEnd and the
	// active set, then opens the window by bumping gen to an odd value;
	// workers (and the coordinating goroutine itself) claim shards off
	// active via the claim counter and bump done per shard finished.
	// Closing bumps gen back to even, and the coordinator waits for
	// busy == 0 — no worker inside a claim loop — before touching any
	// window state again, so stragglers never observe a half-built
	// window. Workers spin briefly between windows — barrier-to-barrier
	// gaps are microseconds — and park on cond after a bounded spin so
	// idle fabrics don't burn CPU.
	windowEnd float64
	active    []*Shard
	gen       atomic.Uint64 // odd = window open, even = closed
	claim     atomic.Int32
	done      atomic.Int32
	busy      atomic.Int32 // workers currently inside runClaims
	stop      atomic.Bool
	parked    atomic.Int32
	mu        sync.Mutex
	cond      *sync.Cond
	workerWG  sync.WaitGroup

	stats FabricStats

	// barrier holds the OnBarrier hooks.
	barrier []func()
}

// nextEntry is one lazy next-event-time cache entry. An entry is valid
// only while its stamp matches the shard's current nextStamp; stale
// entries are skipped when they reach the heap top.
type nextEntry struct {
	time  float64
	shard int32
	stamp uint32
}

// Shard is one partition: an Engine plus the outbox that carries its
// cross-shard messages. All model state owned by the shard must only
// ever be touched from callbacks running on its engine (or at a
// barrier, before Run / between windows).
type Shard struct {
	f       *Fabric
	id      int32
	eng     *Engine
	outbox  []fabricMsg
	inbox   []fabricMsg // due messages, inserted by the shard's runner
	seq     uint64
	active  bool // member of the window being built (dedup flag)
	running atomic.Int32
	// busy accumulates wall-clock nanoseconds spent executing this
	// shard's windows. Written single-owner inside runWindow; the
	// window open/close atomics order it for barrier-time readers.
	busy int64
}

// NewFabric creates n shards, each with a fresh engine at time 0.
// lookahead is the fabric-wide minimum cross-shard latency L in virtual
// seconds; Post clamps smaller delays up to it.
func NewFabric(n int, lookahead float64, opts FabricOptions) *Fabric {
	if n < 1 {
		panic("sim: NewFabric needs at least one shard")
	}
	if lookahead <= 0 || math.IsNaN(lookahead) {
		panic("sim: NewFabric needs a positive lookahead")
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	f := &Fabric{lookahead: lookahead, workers: workers, debug: opts.Debug}
	f.cond = sync.NewCond(&f.mu)
	for i := 0; i < n; i++ {
		s := &Shard{f: f, id: int32(i), eng: NewEngine()}
		if opts.Debug {
			s := s
			s.eng.SetGuard(func() {
				if f.inWindow.Load() == 1 && s.running.Load() == 0 {
					panic(fmt.Sprintf("sim: engine of shard %d touched during a parallel window it is not executing", s.id))
				}
			})
		}
		f.shards = append(f.shards, s)
	}
	f.nextStamp = make([]uint32, n)
	f.prevLive = make([]int, n)
	f.outLat = make([]float64, n)
	for i := range f.outLat {
		f.outLat[i] = lookahead
	}
	f.minOut = lookahead
	return f
}

// SetShardOutLatency raises the minimum virtual latency of messages
// leaving shard i to lat (≥ the fabric lookahead). Posts from i are
// clamped up to it, and in exchange the conservative window bound
// treats i as unable to affect any other shard sooner — windows widen
// past the global lookahead whenever the shards due to run only talk
// over slow edges. Call before Run, as part of wiring the model; the
// bound is part of the model's timing, so it must not change mid-run.
func (f *Fabric) SetShardOutLatency(i int, lat float64) {
	if lat < f.lookahead || math.IsNaN(lat) {
		panic("sim: shard out-latency below fabric lookahead")
	}
	f.outLat[i] = lat
	f.nonUniform = false
	f.minOut = f.outLat[0]
	for _, l := range f.outLat {
		if l != f.lookahead {
			f.nonUniform = true
		}
		if l < f.minOut {
			f.minOut = l
		}
	}
}

// Shards returns the shard count.
func (f *Fabric) Shards() int { return len(f.shards) }

// Shard returns shard i.
func (f *Fabric) Shard(i int) *Shard { return f.shards[i] }

// Lookahead returns the fabric-wide minimum cross-shard latency.
func (f *Fabric) Lookahead() float64 { return f.lookahead }

// OnBarrier registers fn to run at every barrier: after each window
// has been folded back in and before the next one opens, when no shard
// is running, so fn may read state every shard writes. Call it before
// Run, as part of wiring the model.
func (f *Fabric) OnBarrier(fn func()) { f.barrier = append(f.barrier, fn) }

// Stats returns the accumulated fabric counters.
func (f *Fabric) Stats() FabricStats { return f.stats }

// Now returns the maximum clock across all shards.
func (f *Fabric) Now() float64 {
	t := 0.0
	for _, s := range f.shards {
		if s.eng.now > t {
			t = s.eng.now
		}
	}
	return t
}

// Fired sums the executed-event counts of all shards.
func (f *Fabric) Fired() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.eng.fired
	}
	return n
}

// NewShard wraps eng as a standalone shard: a one-shard model with no
// fabric around it. Every post it can make is addressed to itself and
// handled locally (see Post), so a model wired through shards runs on
// a plain engine, driven by the engine's own Run.
func NewShard(eng *Engine) *Shard { return &Shard{eng: eng} }

// ID returns the shard index.
func (s *Shard) ID() int { return int(s.id) }

// Engine returns the shard's engine. Schedule on it only from the
// shard's own callbacks (or before Run starts).
func (s *Shard) Engine() *Engine { return s.eng }

// Post sends fn to shard dst, to run after at least delay seconds of
// virtual time. Delays below the fabric lookahead are clamped up to it
// — that bound is what makes concurrent window execution safe. The
// message counts as live work (it keeps Run going); use PostDaemon for
// housekeeping traffic. Post must be called from a callback executing
// on this shard (or at a barrier).
//
// A post addressed to the posting shard crosses no window boundary, so
// it is no message: with delay 0 fn runs synchronously, inside Post;
// otherwise it is scheduled on the shard's own engine at now+delay,
// unclamped, keeping the daemon flag.
func (s *Shard) Post(dst int, delay float64, fn func()) {
	s.post(dst, delay, fn, false)
}

// PostDaemon is Post for messages that should not keep the simulation
// alive (periodic control traffic, telemetry).
func (s *Shard) PostDaemon(dst int, delay float64, fn func()) {
	s.post(dst, delay, fn, true)
}

func (s *Shard) post(dst int, delay float64, fn func(), daemon bool) {
	if fn == nil {
		panic("sim: Post called with nil fn")
	}
	if dst == int(s.id) {
		switch {
		case delay == 0:
			fn()
		case daemon:
			s.eng.ScheduleDaemon(delay, fn)
		default:
			s.eng.Schedule(delay, fn)
		}
		return
	}
	if s.f == nil || dst < 0 || dst >= len(s.f.shards) {
		panic(fmt.Sprintf("sim: Post to unknown shard %d", dst))
	}
	if s.f.debug && s.f.inWindow.Load() == 1 && s.running.Load() == 0 {
		panic(fmt.Sprintf("sim: Post from shard %d outside its window", s.id))
	}
	if min := s.f.outLat[s.id]; delay < min || math.IsNaN(delay) {
		delay = min
	}
	s.outbox = append(s.outbox, fabricMsg{
		deliver: s.eng.now + delay,
		src:     s.id,
		dst:     int32(dst),
		daemon:  daemon,
		seq:     s.seq,
		fn:      fn,
	})
	s.seq++
}

// Run executes windows until no live work remains anywhere: every
// shard's non-daemon queue is drained and no non-daemon message is in
// flight (daemon-only activity does not keep the fabric alive, matching
// Engine.Run). It returns the final virtual time — the maximum shard
// clock.
func (f *Fabric) Run() float64 { return f.RunUntil(math.Inf(1)) }

// RunUntil is Run bounded by a virtual-time horizon: events and
// messages at or after limit are left pending. Unlike Engine.RunUntil
// the bound is exclusive and shard clocks are not advanced to it.
//
// Per-window cost is O(active·log shards + messages·log pending), not
// O(shards): with a heavily skewed population (a busy coordinator
// among thousands of mostly idle hollow datanode shards) the window
// loop touches only the shards that actually have work or mail due.
func (f *Fabric) RunUntil(limit float64) float64 {
	parallel := f.workers > 1 && len(f.shards) > 1
	if parallel {
		f.startWorkers()
		defer f.stopWorkers()
	}
	// External callers may have scheduled events, cancelled them, or
	// posted messages since the last run — rebuild the incremental
	// state from the ground truth once, then maintain it per window.
	f.refreshAll()
	for {
		if f.liveSum == 0 && f.liveMsgs == 0 {
			break
		}
		start, ok := f.peekNext()
		if !ok || start >= limit {
			break
		}
		// Conservative window end: the earliest instant anything running
		// in this window could affect another shard. With uniform edge
		// latencies that is exactly start + lookahead (the classic
		// global clamp); with per-shard bounds it is the minimum over
		// (a) each shard's next event plus its outgoing-edge bound and
		// (b) the earliest in-flight message plus the fabric-wide
		// minimum — any message delivered at d wakes computation no
		// earlier than d, whose posts land at d + outLat(dst) or later.
		var end float64
		if !f.nonUniform {
			end = start + f.lookahead
		} else {
			end = math.Inf(1)
			if b, ok := f.peekBound(); ok {
				end = b
			}
			if len(f.pending) > 0 {
				if mb := f.pending[0].deliver + f.minOut; mb < end {
					end = mb
				}
			}
		}
		if end > limit {
			end = limit
		}
		active := f.active[:0]
		// Route due mail; destinations join the window.
		for len(f.pending) > 0 && f.pending[0].deliver < end {
			m := f.popPending()
			dst := f.shards[m.dst]
			dst.inbox = append(dst.inbox, m)
			if !m.daemon {
				f.liveMsgs--
			}
			f.stats.Messages++
			if !dst.active {
				dst.active = true
				active = append(active, dst)
			}
		}
		// Shards whose next local event falls inside the window join
		// too. Their heap entries are consumed here; finishWindow
		// pushes fresh ones after the shard runs.
		for len(f.nextHeap) > 0 && f.nextHeap[0].time < end {
			e := f.nextHeap.pop()
			if e.stamp != f.nextStamp[e.shard] {
				continue // stale
			}
			s := f.shards[e.shard]
			if !s.active {
				s.active = true
				active = append(active, s)
			}
		}
		f.active = active
		f.stats.Windows++
		if !parallel || len(active) < 2 {
			// Serial or single-shard window: run inline, no
			// synchronization cost.
			for _, s := range active {
				s.runWindow(end)
			}
			f.finishWindow()
			continue
		}
		f.stats.ParallelWindows++
		f.windowEnd = end
		f.claim.Store(0)
		f.done.Store(0)
		f.inWindow.Store(1)
		f.gen.Add(1) // open: gen becomes odd
		if f.parked.Load() > 0 {
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		}
		// The coordinator is a worker too: claim shards until none are
		// left, then wait for every shard to finish and every straggler
		// to leave the claim loop before touching window state again.
		f.runClaims()
		for f.done.Load() != int32(len(active)) {
			runtime.Gosched()
		}
		f.gen.Add(1) // close: gen becomes even
		for f.busy.Load() != 0 {
			runtime.Gosched()
		}
		f.inWindow.Store(0)
		f.finishWindow()
	}
	return f.Now()
}

// finishWindow folds the shards that just ran back into the
// incremental window state: outboxes drain into the pending heap, the
// live-event sum absorbs each shard's delta, and a fresh next-event
// entry replaces the consumed one. Then it runs the barrier hooks.
// Runs only at barriers.
func (f *Fabric) finishWindow() {
	for _, s := range f.active {
		s.active = false
		f.liveSum += s.eng.live - f.prevLive[s.id]
		f.prevLive[s.id] = s.eng.live
		for _, m := range s.outbox {
			if !m.daemon {
				f.liveMsgs++
			}
			f.pushPending(m)
		}
		s.outbox = s.outbox[:0]
		f.refreshNext(s)
	}
	if len(f.pending) > f.stats.MaxPending {
		f.stats.MaxPending = len(f.pending)
	}
	for _, fn := range f.barrier {
		fn()
	}
}

// refreshAll rebuilds liveSum, the next-event heap, and the pending
// set from scratch — the O(shards) ground-truth scan, run once per
// RunUntil call to absorb any barrier-time scheduling by the caller.
func (f *Fabric) refreshAll() {
	f.liveSum = 0
	f.nextHeap = f.nextHeap[:0]
	f.boundHeap = f.boundHeap[:0]
	for _, s := range f.shards {
		f.liveSum += s.eng.live
		f.prevLive[s.id] = s.eng.live
		f.nextStamp[s.id]++
		if t, ok := s.eng.PeekTime(); ok {
			f.nextHeap.push(nextEntry{time: t, shard: s.id, stamp: f.nextStamp[s.id]})
			if f.nonUniform {
				f.boundHeap.push(nextEntry{time: t + f.outLat[s.id], shard: s.id, stamp: f.nextStamp[s.id]})
			}
		}
		for _, m := range s.outbox {
			if !m.daemon {
				f.liveMsgs++
			}
			f.pushPending(m)
		}
		s.outbox = s.outbox[:0]
	}
	if len(f.pending) > f.stats.MaxPending {
		f.stats.MaxPending = len(f.pending)
	}
}

// refreshNext replaces a shard's next-event cache entry. Bumping the
// stamp invalidates any older entry still in the heap; the new entry
// is pushed only if the shard has pending events.
func (f *Fabric) refreshNext(s *Shard) {
	f.nextStamp[s.id]++
	if t, ok := s.eng.PeekTime(); ok {
		f.nextHeap.push(nextEntry{time: t, shard: s.id, stamp: f.nextStamp[s.id]})
		if f.nonUniform {
			f.boundHeap.push(nextEntry{time: t + f.outLat[s.id], shard: s.id, stamp: f.nextStamp[s.id]})
		}
	}
}

// peekNext returns the earliest pending event or undelivered message
// anywhere, discarding stale next-event entries on the way.
func (f *Fabric) peekNext() (float64, bool) {
	f.nextHeap.dropStale(f.nextStamp)
	t, ok := math.Inf(1), false
	if len(f.nextHeap) > 0 {
		t, ok = f.nextHeap[0].time, true
	}
	if len(f.pending) > 0 && f.pending[0].deliver < t {
		t, ok = f.pending[0].deliver, true
	}
	return t, ok
}

// runWindow drains the shard's due-message inbox into its engine and
// executes every event before end. Single-owner: exactly one goroutine
// runs it per shard per window.
func (s *Shard) runWindow(end float64) {
	s.running.Store(1)
	t0 := time.Now()
	for i := range s.inbox {
		m := &s.inbox[i]
		s.eng.schedule(m.deliver, m.fn, m.daemon)
		m.fn = nil
	}
	s.inbox = s.inbox[:0]
	s.eng.RunBefore(end)
	s.busy += int64(time.Since(t0))
	s.running.Store(0)
}

// Occupancy reports per-shard execution load: events fired (a
// deterministic function of the model) and wall-clock seconds spent
// executing windows (host-dependent — the measured, not estimated,
// serial fraction). Call at a barrier or after Run.
func (f *Fabric) Occupancy() (events []uint64, busy []float64) {
	events = make([]uint64, len(f.shards))
	busy = make([]float64, len(f.shards))
	for i, s := range f.shards {
		events[i] = s.eng.fired
		busy[i] = float64(s.busy) / 1e9
	}
	return events, busy
}

// runClaims executes shards off the active set until none remain.
// Reading windowEnd/active here is safe: workers only enter between a
// window's open and close gen transitions (tracked in busy), and the
// coordinator never mutates either field while the window is open or a
// worker is still inside this loop.
func (f *Fabric) runClaims() {
	end := f.windowEnd
	for {
		i := int(f.claim.Add(1)) - 1
		if i >= len(f.active) {
			return
		}
		f.active[i].runWindow(end)
		f.done.Add(1)
	}
}

// worker is the spin-then-park loop of one pool goroutine. Between
// windows the coordinator is only microseconds away, so workers spin
// (yielding) for a bounded count before parking on the fabric's cond.
func (f *Fabric) worker() {
	defer f.workerWG.Done()
	const spinLimit = 1 << 13
	last := f.gen.Load()
	spins := 0
	for {
		g := f.gen.Load()
		if g != last && g&1 == 1 {
			// A window is open. Register in busy before claiming, then
			// re-check: if the window closed in between, back out —
			// the coordinator may already be mutating window state.
			f.busy.Add(1)
			if f.gen.Load() == g {
				f.runClaims()
			}
			f.busy.Add(-1)
			last, spins = g, 0
			continue
		}
		if f.stop.Load() {
			return
		}
		if spins < spinLimit {
			spins++
			runtime.Gosched()
			continue
		}
		f.mu.Lock()
		f.parked.Add(1)
		for g := f.gen.Load(); (g == last || g&1 == 0) && !f.stop.Load(); g = f.gen.Load() {
			f.cond.Wait()
		}
		f.parked.Add(-1)
		f.mu.Unlock()
		spins = 0
	}
}

func (f *Fabric) startWorkers() {
	f.stop.Store(false)
	n := f.workers
	if n > len(f.shards) {
		n = len(f.shards)
	}
	// The coordinating goroutine claims shards too: n-1 pool goroutines
	// plus the coordinator equal the configured parallelism.
	for i := 0; i < n-1; i++ {
		f.workerWG.Add(1)
		go f.worker()
	}
}

func (f *Fabric) stopWorkers() {
	f.stop.Store(true)
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
	f.workerWG.Wait()
}

// msgHeap is a binary min-heap of undelivered messages ordered by the
// deterministic delivery order (deliver, src, seq). Popping messages in
// heap order yields exactly the sequence a global sort would — the key
// is a total order (seq is unique per source), so heap and sort agree —
// which keeps routing independent of the order shards folded their
// outboxes in.
type msgHeap []fabricMsg

func msgAfter(a, b fabricMsg) bool {
	if a.deliver != b.deliver {
		return a.deliver > b.deliver
	}
	if a.src != b.src {
		return a.src > b.src
	}
	return a.seq > b.seq
}

func (f *Fabric) pushPending(m fabricMsg) {
	h := append(f.pending, m)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgAfter(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	f.pending = h
}

// popPending removes and returns the earliest pending message, clearing
// the vacated slot so the closure does not leak through the backing
// array.
func (f *Fabric) popPending() fabricMsg {
	h := f.pending
	m := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = fabricMsg{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && msgAfter(h[min], h[l]) {
			min = l
		}
		if r < n && msgAfter(h[min], h[r]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	f.pending = h
	return m
}

// peekBound returns the smallest valid per-shard affect bound
// (next-event time + outgoing-edge latency), discarding stale entries.
func (f *Fabric) peekBound() (float64, bool) {
	f.boundHeap.dropStale(f.nextStamp)
	if len(f.boundHeap) == 0 {
		return 0, false
	}
	return f.boundHeap[0].time, true
}

// nextAfter orders next-event cache entries by (time, shard); the
// shard tie-break keeps heap behavior deterministic, though window
// membership — a set — is what consumers read.
func nextAfter(a, b nextEntry) bool {
	if a.time != b.time {
		return a.time > b.time
	}
	return a.shard > b.shard
}

// entryHeap is a lazy min-heap of next-event cache entries, ordered by
// nextAfter.
type entryHeap []nextEntry

func (q *entryHeap) push(e nextEntry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nextAfter(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *entryHeap) pop() nextEntry {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && nextAfter(h[min], h[l]) {
			min = l
		}
		if r < n && nextAfter(h[min], h[r]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	*q = h
	return e
}

// dropStale pops entries whose stamp no longer matches their shard's,
// so the top (if any) is valid.
func (q *entryHeap) dropStale(stamps []uint32) {
	for len(*q) > 0 && (*q)[0].stamp != stamps[(*q)[0].shard] {
		q.pop()
	}
}
