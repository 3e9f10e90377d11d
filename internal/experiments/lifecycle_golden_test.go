package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/trace"
)

// lifecycleOutcome renders what Requests, and the Chrome trace built on
// it, read from a tracer's rings: the lifecycle count, how many lost
// their arrival to ring wrap, the sha256 of every lifecycle (all fields,
// in order) and the sha256 of the Chrome trace bytes.
func lifecycleOutcome(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	h := sha256.New()
	reqs := tr.Requests()
	unarrived := 0
	for _, r := range reqs {
		fmt.Fprintf(h, "%+v\n", r)
		if r.Arrive < 0 {
			unarrived++
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("requests=%d unarrived=%d %x\nchrome %x", len(reqs), unarrived, h.Sum(nil), sha256.Sum256(buf.Bytes()))
}

// oneShardRun is the standard contention scenario of shardedRun on the
// one-shard cluster: one trace ring, audited as each record is written.
func oneShardRun(t *testing.T, seed int64) *Result {
	t.Helper()
	scale := 0.0625
	res, err := Run(Options{
		Scale:         scale,
		Policy:        cluster.SFQD2,
		Coordinate:    true,
		Seed:          seed,
		TraceCapacity: 1 << 15,
		Audit:         true,
	}, []Entry{wordCount(scale, 1), teraSortContender(scale, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRequestsGolden pins the assembled lifecycles and the Chrome trace
// of the standard contention scenario on both shard layouts. Rings wrap
// on both, so some lifecycles begin after their arrival was
// overwritten.
func TestRequestsGolden(t *testing.T) {
	sharded, _ := shardedRun(t, 7, 1)
	if got, want := lifecycleOutcome(t, sharded.Trace), `requests=87427 unarrived=82 f00d6a2fdf04ba78f682665a380be8fa5aec77a803cec4870c5e141c246b5ada
chrome 1ea499ac798ace9c94a58f312655604f0d591e0f15ab709bcd158363fd0f9de0`; got != want {
		t.Errorf("sharded lifecycles:\n%s\nwant:\n%s", got, want)
	}
	if got, want := lifecycleOutcome(t, oneShardRun(t, 7).Trace), `requests=10948 unarrived=42 2549957ef2728512516845a2e8c8fb8fe3a70b8bda45906e3f7cf76c6f66dd99
chrome a7a304733dbf6060f10ff1f68297e992970c060abbd90082aea11422f0b6985f`; got != want {
		t.Errorf("one-shard lifecycles:\n%s\nwant:\n%s", got, want)
	}
}
