package mapreduce

import (
	"math"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// testHarness bundles a small fast cluster for engine tests.
type testHarness struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	nn  *dfs.Namenode
	rt  *Runtime
}

func newHarness(t testing.TB, policy cluster.Policy, nodes int) *testHarness {
	t.Helper()
	eng := sim.NewEngine()
	spec := storage.Spec{
		Name: "fastflat", ReadBW: 200e6, WriteBW: 200e6,
		PerOpOverhead: 0.1e6,
		Curve:         []float64{0.7, 0.85, 1, 1}, CurveDecay: 0.99, MinCurve: 0.5,
	}
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:        nodes,
		CoresPerNode: 4,
		MemGBPerNode: 24,
		HDFSDisk:     spec,
		LocalDisk:    spec,
		Policy:       policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	nn := dfs.NewNamenode(dfs.Config{Nodes: nodes, BlockSize: 32e6, Replication: 2, Seed: 5})
	rt := NewRuntime(eng, cl, nn, Config{ChunkBytes: 4e6})
	return &testHarness{eng: eng, cl: cl, nn: nn, rt: rt}
}

func simpleSpec() JobSpec {
	return JobSpec{
		Name:              "sortish",
		Weight:            1,
		InputBytes:        128e6,
		MapOutputBytes:    128e6,
		NumReduces:        2,
		OutputBytes:       128e6,
		MapCPUSecPerMB:    0.001,
		ReduceCPUSecPerMB: 0.001,
	}
}

func TestSpecValidation(t *testing.T) {
	base := simpleSpec()
	ok := base
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*JobSpec){
		func(s *JobSpec) { s.Name = "" },
		func(s *JobSpec) { s.Weight = 0 },
		func(s *JobSpec) { s.InputBytes = -1 },
		func(s *JobSpec) { s.InputBytes = 0; s.NumMaps = 0 },
		func(s *JobSpec) { s.NumReduces = -1 },
		func(s *JobSpec) { s.NumReduces = 0 }, // shuffle bytes with no reduces
		func(s *JobSpec) { s.MapCPUSecPerMB = -1 },
		func(s *JobSpec) { s.InputBytes = math.NaN() },
		func(s *JobSpec) { s.InputBytes = math.Inf(1) },
		func(s *JobSpec) { s.MapOutputBytes = math.Inf(-1) },
		func(s *JobSpec) { s.OutputBytes = math.NaN() },
		func(s *JobSpec) { s.MapCPUSecPerMB = math.NaN() },
		func(s *JobSpec) { s.ReduceCPUSecPerMB = math.Inf(1) },
		func(s *JobSpec) { s.Weight = math.NaN() },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s := simpleSpec()
	eff := s.withDefaults()
	if eff.CPUWeight != 1 || eff.MapMemGB != 2 || eff.ReduceMemGB != 8 {
		t.Fatalf("defaults: %+v", eff)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	job, err := h.rt.Submit(simpleSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var doneJob *Job
	h.rt.OnJobDone(func(j *Job) { doneJob = j })
	end := h.eng.Run()
	if !job.Done() {
		t.Fatalf("job not done (state %v, maps %d/%d, reduces %d/%d)",
			job.State(), job.mapsDone, len(job.maps), job.reducesDone, len(job.reduces))
	}
	if doneJob != job {
		t.Fatal("OnJobDone not fired with the job")
	}
	if end <= 0 || math.IsNaN(job.Runtime()) || job.Runtime() <= 0 {
		t.Fatalf("runtime = %v at end %v", job.Runtime(), end)
	}
	res := job.Result()
	if res.Runtime() != job.Runtime() {
		t.Fatal("Result runtime mismatch")
	}
	if res.MapPhase() <= 0 || res.ReducePhase() < 0 {
		t.Fatalf("phases: map=%v reduce=%v", res.MapPhase(), res.ReducePhase())
	}
}

func TestMapCountFromBlocks(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	job, _ := h.rt.Submit(simpleSpec(), 0) // 128 MB / 32 MB blocks = 4 maps
	h.eng.Run()
	if job.NumMaps() != 4 {
		t.Fatalf("maps = %d, want 4", job.NumMaps())
	}
	if job.NumReduces() != 2 {
		t.Fatalf("reduces = %d", job.NumReduces())
	}
}

func TestGeneratorJob(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	spec := JobSpec{
		Name:              "gen",
		Weight:            1,
		NumMaps:           8,
		DirectOutputBytes: 256e6,
		MapCPUSecPerMB:    0.0001,
	}
	job, err := h.rt.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !job.Done() {
		t.Fatal("generator job did not finish")
	}
	// Replication 2: cluster-wide persistent writes = 2 × 256 MB.
	var written float64
	for _, n := range h.cl.Nodes {
		written += n.HDFS.Stats().WriteBytes
	}
	if math.Abs(written-512e6) > 1e6 {
		t.Fatalf("persistent writes = %v, want 512e6 (2× replication)", written)
	}
}

func TestIOVolumeAccounting(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	job, _ := h.rt.Submit(simpleSpec(), 0)
	h.eng.Run()

	var pRead, pWrite, iRead, iWrite float64
	for _, n := range h.cl.Nodes {
		pRead += n.HDFS.Stats().ReadBytes
		pWrite += n.HDFS.Stats().WriteBytes
		iRead += n.Local.Stats().ReadBytes
		iWrite += n.Local.Stats().WriteBytes
	}
	// Input read once: 128 MB.
	if math.Abs(pRead-128e6) > 1e6 {
		t.Fatalf("persistent reads = %v, want 128e6", pRead)
	}
	// Output written with replication 2: 256 MB.
	if math.Abs(pWrite-256e6) > 1e6 {
		t.Fatalf("persistent writes = %v, want 256e6", pWrite)
	}
	// Intermediate with the default (large) shuffle buffer: map spill
	// (128 MB) written, shuffle-serve (128 MB) read; the reduce side
	// merges in memory.
	if math.Abs(iWrite-128e6) > 1e6 {
		t.Fatalf("intermediate writes = %v, want 128e6", iWrite)
	}
	if math.Abs(iRead-128e6) > 1e6 {
		t.Fatalf("intermediate reads = %v, want 128e6", iRead)
	}
	_ = job
}

func TestIOVolumeAccountingSpillingShuffle(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	// Force the spill path with a tiny shuffle buffer.
	rt := NewRuntime(h.eng, h.cl, h.nn, Config{ChunkBytes: 4e6, ShuffleBufferBytes: 1})
	if _, err := rt.Submit(simpleSpec(), 0); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	var iRead, iWrite float64
	for _, n := range h.cl.Nodes {
		iRead += n.Local.Stats().ReadBytes
		iWrite += n.Local.Stats().WriteBytes
	}
	// Map spill (128) + reduce spill (128) writes; shuffle-serve (128)
	// + merge read-back (128) reads.
	if math.Abs(iWrite-256e6) > 1e6 {
		t.Fatalf("intermediate writes = %v, want 256e6", iWrite)
	}
	if math.Abs(iRead-256e6) > 1e6 {
		t.Fatalf("intermediate reads = %v, want 256e6", iRead)
	}
}

func TestCPUQuotaRespected(t *testing.T) {
	h := newHarness(t, cluster.Native, 4) // 16 cores total
	spec := simpleSpec()
	spec.InputBytes = 512e6 // 16 maps
	spec.CPUQuota = 3
	job, _ := h.rt.Submit(spec, 0)
	maxUsed := 0
	h.rt.OnJobDone(func(*Job) {})
	probe := func() {}
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
	if maxUsed > 3 {
		t.Fatalf("job used %d cores, quota 3", maxUsed)
	}
	if !job.Done() {
		t.Fatal("job did not finish under quota")
	}
}

func TestMemoryLimitsReduceCount(t *testing.T) {
	// One node, 4 cores, 24 GB: reduces at 8 GB each → at most 3
	// simultaneously even though a 4th core is free.
	h := newHarness(t, cluster.Native, 1)
	spec := simpleSpec()
	spec.NumReduces = 4
	spec.MapOutputBytes = 64e6
	job, _ := h.rt.Submit(spec, 0)
	over := false
	var probe func()
	probe = func() {
		if h.cl.Nodes[0].UsedMemGB > 24 {
			over = true
		}
		if !job.Done() {
			h.eng.Schedule(0.05, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if over {
		t.Fatal("node memory over-committed")
	}
	if !job.Done() {
		t.Fatal("job stuck under memory pressure")
	}
}

func TestTwoJobsFairSharing(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	a := simpleSpec()
	a.Name = "a"
	a.InputBytes = 4e9
	a.MapOutputBytes = 0
	a.OutputBytes = 0
	a.NumReduces = 0
	a.MapCPUSecPerMB = 0.01
	b := a
	b.Name = "b"
	ja, _ := h.rt.Submit(a, 0)
	jb, _ := h.rt.Submit(b, 0)
	// The first job may briefly monopolize the cluster; Fair Scheduler
	// preemption (5 s timeout) must rebalance after the transient.
	var maxA, maxB, minGapA, minGapB = 0, 0, 99, 99
	var probe func()
	probe = func() {
		if h.eng.Now() > 8 && !(ja.Done() || jb.Done()) {
			if ja.UsedCores() > maxA {
				maxA = ja.UsedCores()
			}
			if jb.UsedCores() > maxB {
				maxB = jb.UsedCores()
			}
			if ja.UsedCores() < minGapA {
				minGapA = ja.UsedCores()
			}
			if jb.UsedCores() < minGapB {
				minGapB = jb.UsedCores()
			}
		}
		if !(ja.Done() && jb.Done()) {
			h.eng.Schedule(0.5, probe)
		}
	}
	h.eng.Schedule(0.01, probe)
	h.eng.Run()
	if !ja.Done() || !jb.Done() {
		t.Fatal("jobs did not finish")
	}
	// After the preemption window, neither job should hold more than
	// ~3/4 of the 16 cores while the other is starved.
	if maxA > 12 || maxB > 12 {
		t.Fatalf("steady-state core usage peaked at %d/%d of 16; preemption failed", maxA, maxB)
	}
	if minGapA > 12 || minGapB > 12 {
		t.Fatalf("a job was never constrained: min usage %d/%d", minGapA, minGapB)
	}
}

func TestReduceSlowstart(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	spec := simpleSpec()
	spec.InputBytes = 512e6 // 16 maps
	job, _ := h.rt.Submit(spec, 0)
	h.rt.cfg.SlowstartFraction = 0.5
	reduceStarted := math.Inf(1)
	mapsAtReduceStart := 0
	var probe func()
	probe = func() {
		for _, r := range job.reduces {
			if r.state != taskPending && h.eng.Now() < reduceStarted {
				reduceStarted = h.eng.Now()
				mapsAtReduceStart = job.MapsDone()
			}
		}
		if !job.Done() {
			h.eng.Schedule(0.02, probe)
		}
	}
	h.eng.Schedule(0, probe)
	h.eng.Run()
	if mapsAtReduceStart < 8 {
		t.Fatalf("reduces started with only %d/16 maps done; slowstart 0.5 violated", mapsAtReduceStart)
	}
}

func TestMapOnlyJobPhases(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	spec := JobSpec{
		Name: "maponly", Weight: 1,
		NumMaps: 4, DirectOutputBytes: 64e6,
	}
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Run()
	if !job.Done() {
		t.Fatal("map-only job stuck")
	}
	res := job.Result()
	if res.ReducePhase() != 0 {
		t.Fatalf("map-only reduce phase = %v", res.ReducePhase())
	}
}

func TestDelayedSubmission(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	job, _ := h.rt.Submit(simpleSpec(), 10)
	h.eng.Run()
	if job.SubmitTime != 10 {
		t.Fatalf("SubmitTime = %v, want 10", job.SubmitTime)
	}
	if job.StartTime < 10 {
		t.Fatalf("StartTime = %v before submission", job.StartTime)
	}
}

func TestSubmitInvalidSpecFails(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	if _, err := h.rt.Submit(JobSpec{}, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestLocalityPreferred(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	spec := simpleSpec()
	spec.InputBytes = 512e6
	spec.NumReduces = 0
	spec.MapOutputBytes = 0
	spec.OutputBytes = 0
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Run()
	local := 0
	for _, m := range job.maps {
		if m.block.HasReplicaOn(m.node.Index) {
			local++
		}
	}
	// With 2 replicas on 4 nodes and free choice, most maps should be
	// data-local.
	if float64(local)/float64(len(job.maps)) < 0.5 {
		t.Fatalf("only %d/%d maps were data-local", local, len(job.maps))
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (float64, float64) {
		h := newHarness(t, cluster.SFQD, 4)
		a := simpleSpec()
		a.Name = "a"
		b := simpleSpec()
		b.Name = "b"
		ja, _ := h.rt.Submit(a, 0)
		jb, _ := h.rt.Submit(b, 0.5)
		h.eng.Run()
		return ja.Runtime(), jb.Runtime()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

func TestStateString(t *testing.T) {
	if Pending.String() != "pending" || Running.String() != "running" || Done.String() != "done" {
		t.Fatal("state strings wrong")
	}
}

func TestJobRuntimeNaNWhileRunning(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	job, _ := h.rt.Submit(simpleSpec(), 0)
	if !math.IsNaN(job.Runtime()) {
		t.Fatal("Runtime should be NaN before completion")
	}
	h.eng.Run()
	if math.IsNaN(job.Runtime()) {
		t.Fatal("Runtime NaN after completion")
	}
}

// All tagged I/O must carry the job's app ID and weight.
func TestIOTagging(t *testing.T) {
	h := newHarness(t, cluster.SFQD, 4)
	spec := simpleSpec()
	spec.Weight = 7
	job, _ := h.rt.Submit(spec, 0)
	bad := 0
	h.cl.SetIOObserver(func(_ int, req *iosched.Request, _ float64) {
		if h.cl.Shares().AppName(req.AppIdx) != job.App || req.Weight() != 7 {
			bad++
		}
	})
	h.eng.Run()
	if bad > 0 {
		t.Fatalf("%d requests mis-tagged", bad)
	}
}
