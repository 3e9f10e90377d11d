package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestParallelSpeedupGate is the multi-core CI gate on the sharded
// fabric's wall-clock scaling. After the DESIGN.md §14 decomposition
// the coordinator shard holds ~1.6% of events on the Fig03-class
// co-run, so the Amdahl bound no longer binds at pool sizes CI uses;
// what remains is dispatch overhead, and this gate catches it growing
// back. Wall-clock speedup is a property of the host, so the gate
// skips — loudly, with the reason in the log — on boxes that cannot
// express parallelism (GOMAXPROCS < 4): there it would only measure
// scheduler churn.
func TestParallelSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup gate needs full-length runs; skipped under -short")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("speedup gate skipped: GOMAXPROCS=%d < 4 — wall-clock speedup "+
			"needs real cores; digest equality is still enforced by "+
			"TestShardedDeterminismAcrossWorkers", procs)
	}
	workers := procs
	if workers > 8 {
		workers = 8
	}
	// Two timed runs per configuration, keep the faster: one warm-up
	// damps allocator and cache noise on shared CI runners.
	timeIt := func(w int) (time.Duration, ShardsRow) {
		best := time.Duration(0)
		var row ShardsRow
		for i := 0; i < 2; i++ {
			start := time.Now()
			r, err := ShardsOnce(DefaultScale, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if r.Violations != 0 {
				t.Fatalf("workers=%d: %d audit violations", w, r.Violations)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
			row = r
		}
		return best, row
	}
	serial, srow := timeIt(1)
	parallel, prow := timeIt(workers)
	if srow.Digest != prow.Digest {
		t.Fatalf("digest diverged: workers=1 %s vs workers=%d %s", srow.Digest, workers, prow.Digest)
	}
	speedup := float64(serial) / float64(parallel)
	t.Logf("gomaxprocs=%d workers=%d serial=%v parallel=%v speedup=%.2fx coord-event-frac=%.4f",
		procs, workers, serial, parallel, speedup, prow.ShardLoad.CoordEventFraction())

	// Thresholds are deliberately below the ideal curve: CI runners are
	// shared and the profile has real barrier costs. They exist to
	// catch the serial section growing back (speedup collapsing toward
	// 1), not to benchmark the runner.
	min := 1.8
	if procs >= 8 {
		min = 3.0
	}
	if speedup < min {
		t.Fatalf("speedup %.2fx at %d workers (gomaxprocs=%d), want >= %.1fx — "+
			"has the coordinator's serial share grown back? (coord-event-frac=%.4f)",
			speedup, workers, procs, min, prow.ShardLoad.CoordEventFraction())
	}
}
