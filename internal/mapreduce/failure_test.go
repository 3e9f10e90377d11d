package mapreduce

import (
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/sim"
)

// failureHarness builds a 4-node cluster with replication 2 so one
// node failure is always survivable.
func failureSpec() JobSpec {
	return JobSpec{
		Name:              "victim",
		Weight:            1,
		InputBytes:        256e6,
		MapOutputBytes:    256e6,
		NumReduces:        2,
		OutputBytes:       64e6,
		MapCPUSecPerMB:    0.01,
		ReduceCPUSecPerMB: 0.01,
	}
}

func TestJobSurvivesNodeFailureDuringMapPhase(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	job, err := h.rt.Submit(failureSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(1, func() { h.rt.FailNode(2) })
	h.eng.Run()
	if !job.Done() {
		t.Fatalf("job did not survive the failure: maps %d/%d reduces %d/%d",
			job.MapsDone(), job.NumMaps(), job.ReducesDone(), job.NumReduces())
	}
	if h.rt.FailedTasks() == 0 && h.rt.RerunMaps() == 0 {
		t.Log("failure hit an idle moment (no task was on node 2); still a valid survival test")
	}
	if h.cl.Nodes[2].UsedCores != 0 {
		t.Fatalf("dead node still holds %d cores", h.cl.Nodes[2].UsedCores)
	}
}

func TestJobSurvivesNodeFailureDuringShuffle(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	spec := failureSpec()
	spec.InputBytes = 512e6
	spec.MapOutputBytes = 512e6
	job, err := h.rt.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fail once the job is deep into execution (maps completing,
	// reduces shuffling).
	var arm func()
	arm = func() {
		if job.MapsDone() >= job.NumMaps()/2 {
			h.rt.FailNode(1)
			return
		}
		h.eng.Schedule(0.2, arm)
	}
	h.eng.Schedule(0.2, arm)
	h.eng.Run()
	if !job.Done() {
		t.Fatalf("job did not survive mid-shuffle failure: maps %d/%d reduces %d/%d",
			job.MapsDone(), job.NumMaps(), job.ReducesDone(), job.NumReduces())
	}
	// Some completed map outputs lived on node 1; they must have been
	// re-executed.
	if h.rt.RerunMaps() == 0 {
		t.Error("no completed maps were re-run despite lost outputs")
	}
	for _, m := range job.maps {
		if m.node != nil && m.node.Dead {
			t.Error("a map's final attempt reports a dead node")
		}
	}
}

func TestFailNodeIdempotent(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	job, _ := h.rt.Submit(failureSpec(), 0)
	h.eng.Schedule(0.5, func() {
		h.rt.FailNode(1)
		h.rt.FailNode(1) // no-op
	})
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
}

// TestFailNodeRejectsBadInput: an index outside [0, Nodes) and a
// multi-shard cluster are errors that change nothing, not panics.
func TestFailNodeRejectsBadInput(t *testing.T) {
	h := newHarness(t, cluster.Native, 3)
	for _, idx := range []int{-1, 3} {
		if err := h.rt.FailNode(idx); err == nil {
			t.Errorf("FailNode(%d) on 3 nodes accepted", idx)
		}
	}
	for _, n := range h.cl.Nodes {
		if n.Dead {
			t.Errorf("rejected FailNode killed node %d", n.Index)
		}
	}
	if err := h.rt.FailNode(2); err != nil {
		t.Fatalf("FailNode(2) on 3 nodes: %v", err)
	}

	cl, err := cluster.NewSharded(cluster.Config{Nodes: 2}, 0, sim.FabricOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nn := dfs.NewNamenode(dfs.Config{Nodes: 2, Partitions: len(cl.MetaShards())})
	rt := NewRuntime(cl.Eng, cl, nn, Config{})
	if err := rt.FailNode(0); err == nil {
		t.Error("FailNode on a multi-shard cluster accepted")
	}
	if cl.Nodes[0].Dead {
		t.Error("rejected FailNode killed node 0 of the sharded cluster")
	}
}

func TestDeadNodeReceivesNoNewTasks(t *testing.T) {
	h := newHarness(t, cluster.Native, 3)
	spec := failureSpec()
	spec.InputBytes = 512e6
	spec.MapOutputBytes = 0
	spec.NumReduces = 0
	spec.OutputBytes = 0
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Schedule(0.5, func() { h.rt.FailNode(0) })
	violated := false
	var probe func()
	probe = func() {
		if h.eng.Now() > 0.6 && h.cl.Nodes[0].UsedCores > 0 {
			violated = true
		}
		if !job.Done() {
			h.eng.Schedule(0.1, probe)
		}
	}
	h.eng.Schedule(0.7, probe)
	h.eng.Run()
	if violated {
		t.Fatal("dead node was assigned new tasks")
	}
	if !job.Done() {
		t.Fatal("job stuck after failure")
	}
	// Every map must have run on a surviving node.
	for _, m := range job.maps {
		if m.node == nil || m.node.Index == 0 {
			t.Fatalf("map %d attributed to the dead node", m.index)
		}
	}
}

func TestReduceRestartRefetchesEverything(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	spec := failureSpec()
	job, _ := h.rt.Submit(spec, 0)
	// Fail whichever node hosts reduce 0 once it is running.
	var arm func()
	arm = func() {
		for _, r := range job.reduces {
			if r.state == taskRunning {
				h.rt.FailNode(r.node.Index)
				return
			}
		}
		h.eng.Schedule(0.1, arm)
	}
	h.eng.Schedule(0.1, arm)
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job did not finish after reduce-hosting node failed")
	}
	restarted := false
	for _, r := range job.reduces {
		if r.attempt > 0 {
			restarted = true
			if r.node == nil || r.node.Dead {
				t.Fatal("restarted reduce ended on a dead node")
			}
		}
	}
	if !restarted {
		t.Skip("failure landed before any reduce was placed; covered elsewhere")
	}
}

func TestGeneratorJobSurvivesFailure(t *testing.T) {
	h := newHarness(t, cluster.Native, 3)
	spec := JobSpec{
		Name: "gen", Weight: 1,
		NumMaps: 12, DirectOutputBytes: 240e6, MapCPUSecPerMB: 0.02,
	}
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Schedule(0.5, func() { h.rt.FailNode(2) })
	h.eng.Run()
	if !job.Done() {
		t.Fatal("generator job did not survive")
	}
}

func TestTwoFailuresEitherSurviveOrFailGracefully(t *testing.T) {
	// With replication 2 on 4 nodes, two failures may lose a block:
	// the job must then fail *gracefully* (Failed state), never hang
	// or panic.
	h := newHarness(t, cluster.Native, 4)
	spec := failureSpec()
	spec.InputBytes = 512e6
	spec.MapOutputBytes = 512e6
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Schedule(2, func() { h.rt.FailNode(0) })
	h.eng.Schedule(4, func() { h.rt.FailNode(1) })
	h.eng.Run()
	if !job.Done() && !job.Failed() {
		t.Fatalf("job neither completed nor failed: %v (maps %d/%d)",
			job.State(), job.MapsDone(), job.NumMaps())
	}
	if h.rt.FailedTasks()+h.rt.RerunMaps() == 0 {
		t.Error("two failures mid-run left no trace in the counters")
	}
}

func TestDataLossFailsJobGracefully(t *testing.T) {
	// Kill every node that holds replicas of the input: the job must
	// report Failed.
	h := newHarness(t, cluster.Native, 4)
	spec := failureSpec()
	spec.InputBytes = 512e6
	job, _ := h.rt.Submit(spec, 0)
	h.eng.Schedule(1, func() {
		h.rt.FailNode(0)
		h.rt.FailNode(1)
		h.rt.FailNode(2)
	})
	h.eng.Run()
	// With 3 of 4 nodes dead and replication 2, some block must have
	// lost both replicas (replicas are spread over 4 nodes).
	if !job.Failed() {
		t.Fatalf("job state = %v, want failed after losing 3/4 nodes", job.State())
	}
	if job.State().String() != "failed" {
		t.Fatalf("state string = %q", job.State().String())
	}
	if job.Runtime() <= 0 {
		t.Fatal("failed job should still report a runtime (submit→fail)")
	}
}
