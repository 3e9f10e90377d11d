package mapreduce

import (
	"testing"

	"ibis/internal/cluster"
)

func TestPoolCapsCores(t *testing.T) {
	h := newHarness(t, cluster.Native, 4) // 16 cores
	h.rt.DefinePool("small", 3, 0)
	spec := JobSpec{
		Name: "pooled", Weight: 1, Pool: "small",
		NumMaps: 40, DirectOutputBytes: 40e6, MapCPUSecPerMB: 0.5,
	}
	job, err := h.rt.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxUsed := 0
	var probe func()
	probe = func() {
		if job.UsedCores() > maxUsed {
			maxUsed = job.UsedCores()
		}
		if !job.Done() {
			h.eng.Schedule(0.1, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if maxUsed > 3 {
		t.Fatalf("pooled job used %d cores, pool cap 3", maxUsed)
	}
	if !job.Done() {
		t.Fatal("pooled job did not finish")
	}
}

func TestPoolCapsAreAggregate(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	h.rt.DefinePool("shared", 4, 0)
	mk := func(name string) JobSpec {
		return JobSpec{
			Name: name, Weight: 1, Pool: "shared",
			NumMaps: 20, DirectOutputBytes: 20e6, MapCPUSecPerMB: 0.5,
		}
	}
	a, _ := h.rt.Submit(mk("a"), 0)
	b, _ := h.rt.Submit(mk("b"), 0)
	maxSum := 0
	var probe func()
	probe = func() {
		if sum := a.UsedCores() + b.UsedCores(); sum > maxSum {
			maxSum = sum
		}
		if !(a.Done() && b.Done()) {
			h.eng.Schedule(0.1, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if maxSum > 4 {
		t.Fatalf("pool members used %d cores together, cap 4", maxSum)
	}
}

func TestPoolMemoryCap(t *testing.T) {
	h := newHarness(t, cluster.Native, 4) // 4×24 GB
	h.rt.DefinePool("memtight", 0, 6)     // three 2 GB maps at a time
	spec := JobSpec{
		Name: "m", Weight: 1, Pool: "memtight",
		NumMaps: 12, DirectOutputBytes: 12e6, MapCPUSecPerMB: 0.5,
	}
	job, _ := h.rt.Submit(spec, 0)
	maxUsed := 0
	var probe func()
	probe = func() {
		if job.UsedCores() > maxUsed {
			maxUsed = job.UsedCores()
		}
		if !job.Done() {
			h.eng.Schedule(0.1, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if maxUsed > 3 {
		t.Fatalf("job used %d concurrent maps, memory cap allows 3", maxUsed)
	}
}

func TestUndeclaredPoolIsUncapped(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	spec := JobSpec{
		Name: "free", Weight: 1, Pool: "nobody-declared-this",
		NumMaps: 4, DirectOutputBytes: 4e6,
	}
	job, err := h.rt.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job in undeclared pool stuck")
	}
}

func TestPoolRedefineUpdatesCaps(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	h.rt.DefinePool("p", 1, 0)
	h.rt.DefinePool("p", 8, 0) // relax
	spec := JobSpec{
		Name: "j", Weight: 1, Pool: "p",
		NumMaps: 8, DirectOutputBytes: 8e6, MapCPUSecPerMB: 0.2,
	}
	job, _ := h.rt.Submit(spec, 0)
	maxUsed := 0
	var probe func()
	probe = func() {
		if job.UsedCores() > maxUsed {
			maxUsed = job.UsedCores()
		}
		if !job.Done() {
			h.eng.Schedule(0.05, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if maxUsed <= 1 {
		t.Fatalf("redefined pool still capped at 1 (max used %d)", maxUsed)
	}
}

func TestPoolReleasedOnCompletion(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	h.rt.DefinePool("p", 2, 8)
	spec := JobSpec{Name: "j", Weight: 1, Pool: "p", NumMaps: 4, DirectOutputBytes: 4e6}
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job stuck")
	}
	p := h.rt.pools["p"]
	if p.usedCores != 0 || p.usedMemGB != 0 {
		t.Fatalf("pool not drained: %+v", p)
	}
}

func TestWindowedPipelinesChunks(t *testing.T) {
	h := newHarness(t, cluster.Native, 1)
	rt := h.rt
	// Track maximum concurrent chunks.
	inFlight, maxInFlight := 0, 0
	done := false
	windowed(h.eng, rt.cfg.ChunkBytes, 20e6, 4, func(c float64, next func()) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		h.eng.Schedule(0.1, func() {
			inFlight--
			next()
		})
	}, func() { done = true })
	h.eng.Run()
	if !done {
		t.Fatal("windowed never completed")
	}
	if maxInFlight != 4 {
		t.Fatalf("max in flight = %d, want window 4", maxInFlight)
	}
}

func TestWindowedZeroSize(t *testing.T) {
	h := newHarness(t, cluster.Native, 1)
	done := false
	windowed(h.eng, h.rt.cfg.ChunkBytes, 0, 4, func(float64, func()) {
		t.Fatal("chunk issued for zero size")
	}, func() { done = true })
	h.eng.Run()
	if !done {
		t.Fatal("zero-size windowed never completed")
	}
}

func TestChunkedExactMultiple(t *testing.T) {
	h := newHarness(t, cluster.Native, 1)
	var chunks []float64
	chunked(h.eng, h.rt.cfg.ChunkBytes, 8e6, func(c float64, next func()) {
		chunks = append(chunks, c)
		h.eng.Schedule(0, next)
	}, func() {})
	h.eng.Run()
	total := 0.0
	for _, c := range chunks {
		total += c
		if c > h.rt.cfg.ChunkBytes {
			t.Fatalf("oversized chunk %v", c)
		}
	}
	if total != 8e6 {
		t.Fatalf("chunk total %v, want 8e6", total)
	}
}
