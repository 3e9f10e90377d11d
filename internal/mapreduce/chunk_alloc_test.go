package mapreduce

import (
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
)

// chunkLoop issues one MapReduce chunk at a time on one node through
// Runtime.submit (the node's request pool, its SFQ(D) scheduler, the
// device and back to a continuation built once) and runs it to
// completion.
type chunkLoop struct {
	h    *testHarness
	job  *Job
	n    *cluster.Node
	next func()
	done int
}

func newChunkLoop(tb testing.TB) *chunkLoop {
	h := newHarness(tb, cluster.SFQD, 1)
	c := &chunkLoop{h: h, job: &Job{rt: h.rt, App: "chunk"}, n: h.cl.Nodes[0]}
	c.next = func() { c.done++ }
	return c
}

func (c *chunkLoop) chunk() {
	c.h.rt.submit(c.job, c.n, iosched.PersistentRead, 4e6, c.next)
	c.h.eng.Run()
}

// TestChunkIOAllocatesNothing pins the MapReduce I/O path: once the
// node's pool, the flow table and the free lists are warm, a chunk
// allocates nothing.
func TestChunkIOAllocatesNothing(t *testing.T) {
	c := newChunkLoop(t)
	c.chunk()
	if a := testing.AllocsPerRun(100, c.chunk); a != 0 {
		t.Fatalf("one chunk allocates %v times, want 0", a)
	}
	if c.done != 102 || c.n.Requests().Outstanding() != 0 {
		t.Fatalf("%d chunks completed, %d requests outstanding; want 102 and 0", c.done, c.n.Requests().Outstanding())
	}
}

// BenchmarkMapReduceChunkIO is one chunk's round trip; it must report
// 0 allocs/op.
func BenchmarkMapReduceChunkIO(b *testing.B) {
	c := newChunkLoop(b)
	c.chunk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.chunk()
	}
}
