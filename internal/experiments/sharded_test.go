package experiments

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"testing"

	"ibis/internal/cluster"
)

// shardedRun executes the standard contention scenario (WordCount vs
// TeraSort, coordinated SFQ(D2)) on the sharded fabric with the given
// worker count, returning the result and the sha256 of its merged
// JSONL trace.
func shardedRun(t *testing.T, seed int64, workers int) (*Result, [32]byte) {
	t.Helper()
	scale := 0.0625
	res, err := Run(Options{
		Scale:         scale,
		Policy:        cluster.SFQD2,
		Coordinate:    true,
		Seed:          seed,
		TraceCapacity: 1 << 15,
		Audit:         true,
		Shards:        workers,
	}, []Entry{wordCount(scale, 1), teraSortContender(scale, 1)})
	if err != nil {
		t.Fatalf("sharded run (seed %d, workers %d): %v", seed, workers, err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("merged trace is empty; nothing was recorded")
	}
	return res, sha256.Sum256(buf.Bytes())
}

// TestShardedDeterminismAcrossWorkers pins the tentpole promise: the
// worker count is physical parallelism only. For every seed, runs at
// 2, 4 and 8 workers must match the 1-worker run bit for bit — same
// trace bytes, same durations, same event counts, same audit verdict.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{7, 42, 20260806} {
		base, baseDigest := shardedRun(t, seed, 1)
		if n := base.Audit.ViolationCount(); n != 0 {
			t.Fatalf("seed %d serial run: %d audit violations: %v", seed, n, base.Audit.Err())
		}
		for _, workers := range []int{2, 4, 8} {
			res, digest := shardedRun(t, seed, workers)
			if digest != baseDigest {
				t.Errorf("seed %d: workers=%d trace digest %x != serial %x", seed, workers, digest, baseDigest)
			}
			if res.Duration != base.Duration {
				t.Errorf("seed %d: workers=%d duration %v != serial %v", seed, workers, res.Duration, base.Duration)
			}
			if res.EventsFired != base.EventsFired {
				t.Errorf("seed %d: workers=%d fired %d events, serial %d", seed, workers, res.EventsFired, base.EventsFired)
			}
			if res.TotalBytes != base.TotalBytes {
				t.Errorf("seed %d: workers=%d total bytes %v != serial %v", seed, workers, res.TotalBytes, base.TotalBytes)
			}
			if res.BrokerExchanges != base.BrokerExchanges {
				t.Errorf("seed %d: workers=%d broker exchanges %d != serial %d", seed, workers, res.BrokerExchanges, base.BrokerExchanges)
			}
			if !reflect.DeepEqual(res.Jobs, base.Jobs) {
				t.Errorf("seed %d: workers=%d job results differ from serial", seed, workers)
			}
			if !reflect.DeepEqual(res.Audit.Checks(), base.Audit.Checks()) {
				t.Errorf("seed %d: workers=%d audit check counts differ from serial:\n  %v\nvs\n  %v",
					seed, workers, res.Audit.Checks(), base.Audit.Checks())
			}
			if n := res.Audit.ViolationCount(); n != 0 {
				t.Errorf("seed %d: workers=%d: %d audit violations: %v", seed, workers, n, res.Audit.Err())
			}
		}
	}
}

// TestShardedSeedSensitivity guards against a digest that is blind to
// the workload: different seeds must produce different traces.
func TestShardedSeedSensitivity(t *testing.T) {
	_, a := shardedRun(t, 1, 2)
	_, b := shardedRun(t, 2, 2)
	if a == b {
		t.Fatal("different seeds produced identical sharded traces")
	}
}

// TestShardedCaptureThroughput runs a Figure 2-style capture (TeraSort
// alone, native policy) on the fabric: each node shard bins its own
// completions and the series merge in shard order, so the read/write
// series are identical for every worker count and together account
// for every byte the devices served.
func TestShardedCaptureThroughput(t *testing.T) {
	scale := 0.0625
	capture := func(workers int) *Result {
		res, err := Run(Options{
			Scale:             scale,
			Policy:            cluster.Native,
			CaptureThroughput: true,
			Shards:            workers,
		}, []Entry{fullCores(teraSort(scale, 1))})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := capture(1)
	if len(base.ReadSeries.Bins()) == 0 || len(base.WriteSeries.Bins()) == 0 {
		t.Fatal("capture recorded no read or write throughput")
	}
	for _, res := range []*Result{base, capture(4)} {
		if !reflect.DeepEqual(res.ReadSeries.Bins(), base.ReadSeries.Bins()) ||
			!reflect.DeepEqual(res.WriteSeries.Bins(), base.WriteSeries.Bins()) {
			t.Fatal("read/write series differ across worker counts")
		}
		sum := res.ReadSeries.Total() + res.WriteSeries.Total()
		if rel := math.Abs(sum-res.TotalBytes) / res.TotalBytes; rel > 1e-9 {
			t.Fatalf("series total %v vs TotalBytes %v (relative error %g)", sum, res.TotalBytes, rel)
		}
	}
}
