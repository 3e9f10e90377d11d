package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fabricLog records one executed callback: which shard ran it, when,
// and a payload identifying it. Comparing the full per-shard logs
// across worker counts pins bit-determinism.
type fabricLogEntry struct {
	Shard int
	Time  float64
	Tag   string
}

// buildRandomWorkload wires a seeded random message-passing model onto
// f: each shard starts a few event chains; every event continues its
// chain locally or to a random shard (sometimes with a sub-lookahead
// delay, exercising the clamp) down to the given depth. All mutable
// state is per-shard, so random draws depend only on per-shard
// execution order — which the fabric guarantees is deterministic — and
// never on goroutine interleaving. The returned slices are the
// per-shard execution logs, only read after Run returns.
func buildRandomWorkload(f *Fabric, seed int64, depth int) [][]fabricLogEntry {
	logs := make([][]fabricLogEntry, f.Shards())
	rng := rand.New(rand.NewSource(seed))

	// One RNG per shard, seeded deterministically up front.
	shardRng := make([]*rand.Rand, f.Shards())
	for i := range shardRng {
		shardRng[i] = rand.New(rand.NewSource(seed + int64(i)*7919))
	}

	var spawn func(shard, left int, tag string)
	spawn = func(shard, left int, tag string) {
		s := f.Shard(shard)
		logs[shard] = append(logs[shard], fabricLogEntry{shard, s.Engine().Now(), tag})
		if left <= 0 {
			return
		}
		r := shardRng[shard]
		next := tag + "."
		switch r.Intn(3) {
		case 0: // local follow-up
			s.Engine().Schedule(r.Float64()*0.05, func() { spawn(shard, left-1, next+"l") })
		case 1: // remote, delay above lookahead
			dst := r.Intn(f.Shards())
			s.Post(dst, f.Lookahead()+r.Float64()*0.1, func() { spawn(dst, left-1, next+"r") })
		case 2: // remote, delay below lookahead (clamped)
			dst := r.Intn(f.Shards())
			s.Post(dst, r.Float64()*f.Lookahead()*0.5, func() { spawn(dst, left-1, next+"c") })
		}
	}
	for i := 0; i < f.Shards(); i++ {
		for j := 0; j < 3; j++ {
			i, j := i, j
			f.Shard(i).Engine().Schedule(rng.Float64()*0.1, func() {
				spawn(i, depth, fmt.Sprintf("s%d#%d", i, j))
			})
		}
	}
	return logs
}

// TestFabricDeterministicAcrossWorkers is the core property: the same
// seeded workload produces identical per-shard execution logs for every
// worker count, including serial.
func TestFabricDeterministicAcrossWorkers(t *testing.T) {
	const shards = 9 // coordinator + 8 nodes, the cluster topology
	for _, seed := range []int64{1, 42, 20260806} {
		var want [][]fabricLogEntry
		var wantEnd float64
		for _, workers := range []int{1, 2, 4, 8} {
			f := NewFabric(shards, 0.02, FabricOptions{Workers: workers, Debug: true})
			logs := buildRandomWorkload(f, seed, 150)
			end := f.Run()
			if workers == 1 {
				want, wantEnd = logs, end
				continue
			}
			if end != wantEnd {
				t.Fatalf("seed %d workers %d: end time %v, serial %v", seed, workers, end, wantEnd)
			}
			if !reflect.DeepEqual(logs, want) {
				t.Fatalf("seed %d workers %d: execution log diverged from serial run", seed, workers)
			}
		}
	}
}

// TestFabricLookaheadClamp: a sub-lookahead post is delivered exactly
// lookahead after the send time.
func TestFabricLookaheadClamp(t *testing.T) {
	f := NewFabric(2, 0.5, FabricOptions{})
	var deliveredAt float64
	f.Shard(0).Engine().Schedule(1.0, func() {
		f.Shard(0).Post(1, 0.001, func() {
			deliveredAt = f.Shard(1).Engine().Now()
		})
	})
	f.Run()
	if deliveredAt != 1.5 {
		t.Fatalf("sub-lookahead post delivered at %v, want 1.5 (send 1.0 + lookahead 0.5)", deliveredAt)
	}
}

// TestSameShardPostIsLocal: a post a shard addresses to itself is no
// message. With delay 0 it runs synchronously inside Post; with a delay
// it fires at exactly now+delay on the shard's own engine, below the
// lookahead; as a daemon it does not keep the run alive. The same holds
// on a fabric shard and on a standalone one.
func TestSameShardPostIsLocal(t *testing.T) {
	f := NewFabric(2, 0.5, FabricOptions{Debug: true})
	standalone := NewShard(NewEngine())
	for _, tc := range []struct {
		name  string
		shard *Shard
		run   func() float64
	}{
		{"fabric", f.Shard(1), f.Run},
		{"standalone", standalone, standalone.Engine().Run},
	} {
		s := tc.shard
		var sync bool
		var delayedAt float64 = -1
		daemonFired := false
		s.Engine().Schedule(1.0, func() {
			s.Post(s.ID(), 0, func() { sync = true })
			if !sync {
				t.Errorf("%s: zero-delay same-shard post did not run synchronously", tc.name)
			}
			s.Post(s.ID(), 0.1, func() { delayedAt = s.Engine().Now() })
			s.PostDaemon(s.ID(), 5, func() { daemonFired = true })
		})
		end := tc.run()
		if delayedAt != 1.1 {
			t.Errorf("%s: delayed same-shard post fired at %v, want 1.1 (unclamped)", tc.name, delayedAt)
		}
		if daemonFired || end > 1.1 {
			t.Errorf("%s: daemon same-shard post kept the run alive (end %v, fired %v)", tc.name, end, daemonFired)
		}
	}
	if m := f.Stats().Messages; m != 0 {
		t.Errorf("same-shard posts crossed the fabric as %d messages", m)
	}
}

// TestFabricDaemonIdleShardNoStarvation: a shard whose queue holds only
// a self-rescheduling daemon tick must neither stall the others nor
// keep the fabric alive once real work drains; a fully drained shard
// must not deadlock the window computation either.
func TestFabricDaemonIdleShardNoStarvation(t *testing.T) {
	f := NewFabric(4, 0.01, FabricOptions{Workers: 4, Debug: true})

	// Shard 1: daemon-only heartbeat, forever.
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		f.Shard(1).Engine().ScheduleDaemon(0.05, tick)
	}
	f.Shard(1).Engine().ScheduleDaemon(0.05, tick)

	// Shard 2: drains immediately (single event at t=0), then sits empty.
	f.Shard(2).Engine().Schedule(0, func() {})

	// Shard 0: a chain of live work out to t≈1.0, bouncing through
	// shard 3 to keep cross-shard traffic flowing. Each hop posts from
	// the shard currently executing it.
	hops := 0
	var hop func(cur int)
	hop = func(cur int) {
		hops++
		if hops >= 50 {
			return
		}
		dst := 3 - cur
		f.Shard(cur).Post(dst, 0.02, func() { hop(dst) })
	}
	f.Shard(0).Engine().Schedule(0, func() { hop(0) })

	end := f.Run()
	if hops != 50 {
		t.Fatalf("live chain ran %d hops, want 50 — an idle shard starved the fabric", hops)
	}
	if ticks == 0 {
		t.Fatal("daemon tick never ran while live work was in flight")
	}
	// The daemon alone must not have kept the fabric running: the end
	// time is bounded by the live chain (≈ 50 hops × ≥0.02s each).
	if end > 1.2 {
		t.Fatalf("fabric ran to t=%v after live work drained at ≈1.0 — daemon-only shard kept it alive", end)
	}
	if f.Shard(1).Engine().Pending() == 0 {
		t.Fatal("daemon tick should still be pending after termination")
	}
}

// TestFabricRunUntil: the horizon is exclusive and pending work
// survives it.
func TestFabricRunUntil(t *testing.T) {
	f := NewFabric(2, 0.1, FabricOptions{})
	var ran []float64
	for _, tt := range []float64{0.05, 0.25, 0.45} {
		tt := tt
		f.Shard(0).Engine().Schedule(tt, func() { ran = append(ran, tt) })
	}
	f.RunUntil(0.3)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(0.3) executed %v, want the two events before 0.3", ran)
	}
	f.Run()
	if len(ran) != 3 {
		t.Fatalf("resumed Run executed %v, want all three", ran)
	}
}

// TestFabricOwnerGuard: in debug mode, touching a shard engine from
// outside its window panics instead of racing. The window flag is
// driven directly so the panic lands on the test goroutine.
func TestFabricOwnerGuard(t *testing.T) {
	f := NewFabric(2, 0.1, FabricOptions{Workers: 2, Debug: true})
	f.inWindow.Store(1)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("scheduling on a non-running shard during a window did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "touched during a parallel window") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		f.Shard(1).Engine().Schedule(0, func() {})
	}()
	// The running shard itself is allowed through.
	f.Shard(1).running.Store(1)
	f.Shard(1).Engine().Schedule(0, func() {})
	f.Shard(1).running.Store(0)
	f.inWindow.Store(0)

	// Outside any window (barrier / setup), everything is allowed.
	f.Shard(0).Engine().Schedule(0, func() {})
}

// TestFabricMailboxFreelistIsolation runs a message-heavy parallel
// workload and then proves no engine's freelist ever received a foreign
// record: every recycled event must have been allocated by the engine
// that holds it. Combined with -race (this test is in the default
// suite), this pins the single-owner contract at the mailbox boundary.
func TestFabricMailboxFreelistIsolation(t *testing.T) {
	f := NewFabric(8, 0.01, FabricOptions{Workers: 8, Debug: true})
	logs := buildRandomWorkload(f, 7, 400)
	f.Run()
	if f.Stats().ParallelWindows == 0 {
		t.Fatal("workload never exercised a parallel window")
	}
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if total < 5000 {
		t.Fatalf("workload executed %d events, want ≥ 5000", total)
	}

	// Each engine's freelist and queue must reference disjoint record
	// sets: a record delivered cross-shard is always scheduled via the
	// destination engine's own allocator, never moved between engines.
	owner := map[*event]int{}
	for i := 0; i < f.Shards(); i++ {
		e := f.Shard(i).Engine()
		for _, ev := range e.free {
			if prev, dup := owner[ev]; dup {
				t.Fatalf("event record shared between engines %d and %d", prev, i)
			}
			owner[ev] = i
		}
		for _, ev := range e.queue {
			if prev, dup := owner[ev]; dup {
				t.Fatalf("event record shared between engines %d and %d", prev, i)
			}
			owner[ev] = i
		}
	}
}

// TestFabricValidation covers constructor and Post argument checks.
func TestFabricValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero shards", func() { NewFabric(0, 0.1, FabricOptions{}) })
	mustPanic("zero lookahead", func() { NewFabric(1, 0, FabricOptions{}) })
	f := NewFabric(2, 0.1, FabricOptions{})
	mustPanic("nil fn", func() { f.Shard(0).Post(1, 0.1, nil) })
	mustPanic("bad dst", func() { f.Shard(0).Post(5, 0.1, func() {}) })
}
