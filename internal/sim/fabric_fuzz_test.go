package sim

import (
	"reflect"
	"testing"
)

// FuzzFabricOrder checks the fabric's determinism contract on random
// models: one script must fire the same events, at the same times, in
// the same order on every shard whether the windows run on 1, 2 or 4
// workers.
//
// The decoder draws the shard count (1–8), per-shard out-latencies at
// or above the lookahead, and seed events. Every event then acts on
// its own shard only: Post and PostDaemon to any shard with delays
// below, at and above the clamp — same-shard posts included, where
// delay 0 is a direct call — a local Schedule or ScheduleDaemon, and
// Cancel of an earlier local handle. The run advances through
// RunUntil steps, seeding and cancelling more work at each barrier,
// before a final Run. Decisions inside callbacks are pure functions of
// the event's ID and the script, and IDs come from per-shard counters,
// so nothing but the fabric's own ordering can make two runs differ.
func FuzzFabricOrder(f *testing.F) {
	f.Add([]byte{0x07, 0x03, 0x00, 0x41, 0x12, 0x80, 0x33, 0x09, 0x5a, 0x21, 0x70, 0x05, 0xfe, 0x18})
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte{0x03, 0xff, 0x01, 0xff, 0x01, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Add([]byte("fabric order: same shard, clamp, daemon, cancel"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		want := runFabricScript(ops, 1)
		for _, workers := range []int{2, 4} {
			got := runFabricScript(ops, workers)
			if got.end != want.end || got.fired != want.fired {
				t.Fatalf("workers %d: end %v fired %d, serial end %v fired %d",
					workers, got.end, got.fired, want.end, want.fired)
			}
			if !reflect.DeepEqual(got.logs, want.logs) {
				t.Fatalf("workers %d: per-shard fire order diverged from the serial run", workers)
			}
		}
	})
}

// fabricFire is one executed callback in a shard's log.
type fabricFire struct {
	T  float64
	ID uint64 // source shard << 32 | that shard's post counter
}

type fabricScriptRun struct {
	logs  [][]fabricFire
	end   float64
	fired uint64
}

// runFabricScript executes ops as a fabric model (see FuzzFabricOrder)
// on the given worker count.
func runFabricScript(ops []byte, workers int) fabricScriptRun {
	const (
		lookahead = 0.05
		depth     = 5
	)
	at := func(i uint64) byte { return ops[i%uint64(len(ops))] }
	n := 1 + int(ops[0]%8)
	fab := NewFabric(n, lookahead, FabricOptions{Workers: workers, Debug: true})
	for i := 0; i < n; i++ {
		if b := at(uint64(1 + i)); b%2 == 1 {
			fab.SetShardOutLatency(i, lookahead*(1+float64(b>>1)/32))
		}
	}
	// delay spans same-instant, below-clamp, at-clamp and
	// several-lookahead delays.
	delay := func(d byte) float64 {
		switch d % 4 {
		case 0:
			return 0
		case 1:
			return lookahead * float64(d>>2) / 64
		case 2:
			return lookahead
		default:
			return lookahead * (1 + float64(d>>2)/8)
		}
	}
	// roll is the script byte an event's k-th decision reads, mixed
	// with its ID so short scripts still branch.
	roll := func(id uint64, k uint64) byte {
		h := (id+1)*0x9e3779b97f4a7c15 ^ (k+1)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		return at(h>>7) ^ byte(h)
	}

	logs := make([][]fabricFire, n)
	handles := make([][]Event, n)
	counters := make([]uint64, n)
	newID := func(shard int) uint64 {
		id := uint64(shard)<<32 | counters[shard]
		counters[shard]++
		return id
	}
	var fire func(shard int, id uint64, left int)
	// spawn numbers a new event from src's counter — src is the shard
	// running the caller — and returns its callback for shard dst.
	spawn := func(src, dst int, left int) func() {
		id := newID(src)
		return func() { fire(dst, id, left) }
	}
	fire = func(shard int, id uint64, left int) {
		s := fab.Shard(shard)
		eng := s.Engine()
		logs[shard] = append(logs[shard], fabricFire{eng.Now(), id})
		if left == 0 {
			return
		}
		for k := uint64(0); k < 2; k++ {
			b, d := roll(id, 2*k), delay(roll(id, 2*k+1))
			dst := int(b>>3) % n
			switch b % 7 {
			case 0:
				s.Post(dst, d, spawn(shard, dst, left-1))
			case 1:
				s.PostDaemon(dst, d, spawn(shard, dst, left-1))
			case 2:
				s.Post(shard, d, spawn(shard, shard, left-1))
			case 3:
				handles[shard] = append(handles[shard], eng.Schedule(d, spawn(shard, shard, left-1)))
			case 4:
				handles[shard] = append(handles[shard], eng.ScheduleDaemon(d, spawn(shard, shard, left-1)))
			case 5:
				if hs := handles[shard]; len(hs) > 0 {
					eng.Cancel(hs[int(b>>3)%len(hs)])
				}
			}
		}
	}

	pos := uint64(1 + n)
	next := func() byte { b := at(pos); pos++; return b }
	for step := 0; step < 4; step++ {
		// At the barrier: seed work on a few shards and cancel one
		// pending event, then run to a scripted horizon.
		for j := 0; j < 3; j++ {
			shard := int(next()) % n
			d := delay(next())
			handles[shard] = append(handles[shard], fab.Shard(shard).Engine().Schedule(d, spawn(shard, shard, depth)))
		}
		if b := next(); b%3 == 0 {
			shard := int(b>>2) % n
			if hs := handles[shard]; len(hs) > 0 {
				fab.Shard(shard).Engine().Cancel(hs[int(next())%len(hs)])
			}
		}
		fab.RunUntil(fab.Now() + float64(next())*lookahead/16)
	}
	end := fab.Run()
	return fabricScriptRun{logs: logs, end: end, fired: fab.Fired()}
}
