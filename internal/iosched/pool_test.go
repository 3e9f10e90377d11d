package iosched

import (
	"testing"
	"unsafe"
)

// TestRequestRecordSize pins the request record at 144 bytes: the pools
// keep millions of them live, and AppIdx rides in the padding a 32-bit
// Class leaves.
func TestRequestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 144 {
		t.Fatalf("unsafe.Sizeof(Request{}) = %d, want 144", got)
	}
}

func TestRequestPoolRecycleZeroes(t *testing.T) {
	p := new(RequestPool)
	r := p.Get()
	if r.pool != p {
		t.Fatalf("Get did not stamp the record with its pool")
	}
	r.App = "a"
	r.Shares = flat(2)
	r.Size = 123
	r.Done = func(any, float64) {}
	r.DoneArg = r
	r.weight = 2
	r.startTag = 9
	r.finishTag = 10
	r.seq = 7
	r.flow = &flowState{}
	p.put(r)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after put, want 0", p.Outstanding())
	}
	if r.pool != nil || r.Done != nil || r.DoneArg != nil {
		t.Fatalf("recycled record keeps its completion or pool: %+v", *r)
	}
	got := p.Get()
	if got != r {
		t.Fatalf("free list did not recycle the record")
	}
	if got.App != "" || got.Shares != nil || got.Size != 0 || got.Done != nil || got.DoneArg != nil ||
		got.weight != 0 || got.startTag != 0 || got.finishTag != 0 ||
		got.seq != 0 || got.flow != nil {
		t.Fatalf("recycled record not zeroed: %+v", *got)
	}
	if got.pool != p {
		t.Fatalf("recycled record not stamped with its pool again")
	}
}

// carved counts the records ever handed out of p's slabs: the pool's
// historical peak population.
func carved(p *RequestPool) int {
	n := 0
	for _, s := range p.slabs {
		n += len(s)
	}
	if k := len(p.slabs); k > 0 {
		n -= len(p.slabs[k-1]) - p.next
	}
	return n
}

// TestRequestPoolSlabGrowth draws enough records to cross the first
// two slab boundaries (64 and 64+128 records), so distinctness and the
// no-growth-after-recycle check span slabs.
func TestRequestPoolSlabGrowth(t *testing.T) {
	const n = 200
	p := new(RequestPool)
	var live []*Request
	for i := 0; i < n; i++ {
		live = append(live, p.Get())
	}
	if len(p.slabs) < 3 {
		t.Fatalf("%d records fit in %d slab(s), want them to span at least 3", n, len(p.slabs))
	}
	if got := carved(p); got != n {
		t.Fatalf("allocated = %d, want %d", got, n)
	}
	if got := p.Outstanding(); got != n {
		t.Fatalf("outstanding = %d, want %d", got, n)
	}
	// Records must be distinct.
	seen := map[*Request]bool{}
	for _, r := range live {
		if seen[r] {
			t.Fatal("pool handed out the same record twice")
		}
		seen[r] = true
	}
	// Recycle everything; the next n Gets must not grow the slabs and
	// must hand back exactly the recycled records.
	slabs := len(p.slabs)
	for _, r := range live {
		p.put(r)
	}
	again := map[*Request]bool{}
	for i := 0; i < n; i++ {
		r := p.Get()
		if !seen[r] || again[r] {
			t.Fatal("steady-state Get handed out a new or duplicate record")
		}
		again[r] = true
	}
	if got := carved(p); got != n || len(p.slabs) != slabs {
		t.Fatalf("allocated grew to %d in %d slabs after steady-state churn, want %d in %d", got, len(p.slabs), n, slabs)
	}
}

// TestRequestPoolRightSized pins the slab growth: a pool whose peak
// population is k backs fewer than 2k+64 records, so a thousand small
// per-node pools do not each pin a full-cap slab.
func TestRequestPoolRightSized(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 300, 1000, 4096, 8129, 20000} {
		p := new(RequestPool)
		live := make([]*Request, 0, k)
		for i := 0; i < k; i++ {
			live = append(live, p.Get())
		}
		// Churn at the peak must not grow the slabs.
		for i := 0; i < 3*k; i++ {
			p.put(live[i%k])
			live[i%k] = p.Get()
		}
		backed := 0
		for _, s := range p.slabs {
			backed += len(s)
		}
		if backed >= 2*k+64 {
			t.Errorf("peak %d: pool backs %d records, want < %d", k, backed, 2*k+64)
		}
		if got := carved(p); got != k {
			t.Errorf("peak %d: allocated = %d", k, got)
		}
	}
}
