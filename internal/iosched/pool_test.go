package iosched

import "testing"

func TestRequestPoolRecycleZeroes(t *testing.T) {
	p := NewRequestPool(4)
	r := p.Get()
	r.App = "a"
	r.Shares = FixedWeight(2)
	r.Size = 123
	r.OnDone = func(float64) {}
	r.weight = 2
	r.startTag = 9
	r.finishTag = 10
	r.seq = 7
	r.flow = &flowState{}
	p.Put(r)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after Put, want 0", p.Outstanding())
	}
	got := p.Get()
	if got != r {
		t.Fatalf("free list did not recycle the record")
	}
	if got.App != "" || got.Shares != nil || got.Size != 0 || got.OnDone != nil ||
		got.weight != 0 || got.startTag != 0 || got.finishTag != 0 ||
		got.seq != 0 || got.flow != nil {
		t.Fatalf("recycled record not zeroed: %+v", *got)
	}
}

func TestRequestPoolSlabGrowth(t *testing.T) {
	p := NewRequestPool(3)
	var live []*Request
	for i := 0; i < 10; i++ {
		live = append(live, p.Get())
	}
	if got := p.Allocated(); got != 10 {
		t.Fatalf("allocated = %d, want 10", got)
	}
	if got := p.Outstanding(); got != 10 {
		t.Fatalf("outstanding = %d, want 10", got)
	}
	// Records must be distinct.
	seen := map[*Request]bool{}
	for _, r := range live {
		if seen[r] {
			t.Fatal("pool handed out the same record twice")
		}
		seen[r] = true
	}
	// Recycle everything; the next 10 Gets must not grow the slabs.
	for _, r := range live {
		p.Put(r)
	}
	for i := 0; i < 10; i++ {
		p.Get()
	}
	if got := p.Allocated(); got != 10 {
		t.Fatalf("allocated grew to %d after steady-state churn, want 10", got)
	}
}

// TestRequestPoolRightSized pins the slab growth: a pool whose peak
// population is k backs fewer than 2k+64 records, so a thousand small
// per-node pools do not each pin a full-cap slab.
func TestRequestPoolRightSized(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 300, 1000, 4096, 8129, 20000} {
		p := NewRequestPool(0)
		live := make([]*Request, 0, k)
		for i := 0; i < k; i++ {
			live = append(live, p.Get())
		}
		// Churn at the peak must not grow the slabs.
		for i := 0; i < 3*k; i++ {
			p.Put(live[i%k])
			live[i%k] = p.Get()
		}
		backed := 0
		for _, s := range p.slabs {
			backed += len(s)
		}
		if backed >= 2*k+64 {
			t.Errorf("peak %d: pool backs %d records, want < %d", k, backed, 2*k+64)
		}
		if got := p.Allocated(); got != k {
			t.Errorf("peak %d: allocated = %d", k, got)
		}
	}
}
