package trace_test

import (
	"bytes"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/trace"
)

// runShardTraced drives one shard's scheduler on its own engine with
// the tracer's probe for that shard attached, offsetting arrivals so
// shards interleave in time. The scheduler is labeled node = shard.
func runShardTraced(t testing.TB, tr *trace.Tracer, tree *shares.Tree, shard, nReqs int, offset float64) {
	eng := sim.NewEngine()
	s := sfqd2(t, eng, tree)
	s.SetProbe(tr.Probe(shard, shard, trace.DevHDFS))
	for i := 0; i < nReqs; i++ {
		eng.Schedule(offset+float64(i)*0.001, func() {
			s.Submit(&iosched.Request{
				AppIdx: tree.Index("alpha"), Class: iosched.PersistentRead, Size: 1e6,
			})
		})
	}
	eng.Run()
}

// TestShardedMergeDeterministicOrder pins the merge contract: records
// from independently-filled per-shard rings come out in (time, shard,
// ring order) order, the export surface works on the merged stream,
// and repeated exports are byte-identical.
func TestShardedMergeDeterministicOrder(t *testing.T) {
	const n = 16
	tree := shares.NewTree()
	tr := trace.New(1<<10, tree)
	// Interleaved offsets so the merge actually has to reorder across
	// shards rather than concatenate; shard 3 runs shard 0's schedule,
	// so every time has a cross-shard tie, and its probe is built
	// before shard 0's.
	runShardTraced(t, tr, tree, 2, n, 0.0002)
	runShardTraced(t, tr, tree, 3, n, 0.0000)
	runShardTraced(t, tr, tree, 0, n, 0.0000)
	runShardTraced(t, tr, tree, 1, n, 0.0001)

	if got := tr.Total(); got != 4*3*n {
		t.Fatalf("Total() = %d, want %d", got, 4*3*n)
	}
	recs := tr.Records()
	if len(recs) != 4*3*n {
		t.Fatalf("merged %d records, want %d", len(recs), 4*3*n)
	}
	ties := 0
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if b.Time < a.Time {
			t.Fatalf("merged records out of time order at %d: %v after %v", i, b.Time, a.Time)
		}
		if b.Time == a.Time && b.Node != a.Node {
			ties++
			if b.Node < a.Node { // node = shard here
				t.Fatalf("records %d,%d at t=%v: shard %d before shard %d", i-1, i, b.Time, a.Node, b.Node)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no cross-shard time ties; the tie-break is untested")
	}
	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same rings produced different JSONL")
	}
	if a.Len() == 0 {
		t.Fatal("merged JSONL is empty")
	}
}

// TestShardedRingOverflowCounted wraps one shard's ring while another
// keeps everything: Total and Dropped must count what the wrapped ring
// overwrote, and the merged stream holds only the survivors.
func TestShardedRingOverflowCounted(t *testing.T) {
	tree := shares.NewTree()
	tr := trace.New(4, tree)
	runShardTraced(t, tr, tree, 1, 8, 0) // 24 records into a 4-record ring
	runShardTraced(t, tr, tree, 2, 1, 0) // 3 records, no wrap
	if got := tr.Total(); got != 27 {
		t.Fatalf("Total() = %d, want 27", got)
	}
	if got := tr.Dropped(); got != 20 {
		t.Fatalf("Dropped() = %d, want 20", got)
	}
	if got := tr.Len(); got != 7 {
		t.Fatalf("Len() = %d, want 7", got)
	}
	if got := len(tr.Records()); got != 7 {
		t.Fatalf("merged %d records, want 7", got)
	}
}
