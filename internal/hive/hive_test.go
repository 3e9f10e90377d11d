package hive

import (
	"math"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/mapreduce"
	"ibis/internal/sim"
)

func TestQ9Volumes(t *testing.T) {
	q := Q9()
	if got := q.TotalInputGB(); math.Abs(got-53) > 0.5 {
		t.Fatalf("Q9 scan input = %v GB, want 53", got)
	}
	if got := q.TotalShuffleGB(); math.Abs(got-120) > 0.5 {
		t.Fatalf("Q9 shuffle = %v GB, want 120", got)
	}
	if got := q.FinalOutputGB(); got > 1e-4 {
		t.Fatalf("Q9 final output = %v GB, want ≈5 KB", got)
	}
	if len(q.Stages) > 15 {
		t.Fatalf("Q9 has %d stages, paper says up to 15 jobs", len(q.Stages))
	}
}

func TestQ21Volumes(t *testing.T) {
	q := Q21()
	if got := q.TotalInputGB(); math.Abs(got-45) > 0.5 {
		t.Fatalf("Q21 scan input = %v GB, want 45", got)
	}
	if got := q.TotalShuffleGB(); math.Abs(got-40) > 0.5 {
		t.Fatalf("Q21 shuffle = %v GB, want 40", got)
	}
	if got := q.FinalOutputGB(); math.Abs(got-2.6) > 0.1 {
		t.Fatalf("Q21 final output = %v GB, want 2.6", got)
	}
	if len(q.Stages) > 15 {
		t.Fatalf("Q21 has %d stages", len(q.Stages))
	}
}

func newRT(t *testing.T) (*sim.Engine, *mapreduce.Runtime) {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 4, CoresPerNode: 4, Policy: cluster.Native})
	if err != nil {
		t.Fatal(err)
	}
	nn := dfs.NewNamenode(dfs.Config{Nodes: 4, BlockSize: 32e6, Seed: 3})
	return eng, mapreduce.NewRuntime(eng, cl, nn, mapreduce.Config{ChunkBytes: 4e6})
}

func TestQueryRunsStagesSequentially(t *testing.T) {
	eng, rt := newRT(t)
	exec, err := Run(rt, Q21(), RunOptions{ScaleBytes: 0.002}) // tiny scale
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !exec.Done() {
		t.Fatalf("query incomplete: %d stages materialized", len(exec.StageJobs()))
	}
	jobs := exec.StageJobs()
	if len(jobs) != len(Q21().Stages) {
		t.Fatalf("stages run = %d, want %d", len(jobs), len(Q21().Stages))
	}
	// Sequential: each stage starts no earlier than the previous ends.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].EndTime-1e-9 {
			t.Fatalf("stage %d submitted at %v before stage %d ended at %v",
				i, jobs[i].SubmitTime, i-1, jobs[i-1].EndTime)
		}
	}
	if exec.Runtime() <= 0 {
		t.Fatalf("runtime = %v", exec.Runtime())
	}
}

func TestQuerySharesOneAppID(t *testing.T) {
	eng, rt := newRT(t)
	exec, err := Run(rt, Q21(), RunOptions{ScaleBytes: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i, j := range exec.StageJobs() {
		if j.App != exec.App {
			t.Fatalf("stage %d app = %q, want %q", i, j.App, exec.App)
		}
	}
}

func TestQueryOnDoneFires(t *testing.T) {
	eng, rt := newRT(t)
	exec, _ := Run(rt, Q21(), RunOptions{ScaleBytes: 0.002})
	fired := false
	exec.OnDone(func(e *Execution) {
		fired = true
		if e != exec {
			t.Error("wrong execution in callback")
		}
	})
	eng.Run()
	if !fired {
		t.Fatal("OnDone never fired")
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	_, rt := newRT(t)
	if _, err := Run(rt, Query{Name: "empty"}, RunOptions{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestQueryDelay(t *testing.T) {
	eng, rt := newRT(t)
	exec, _ := Run(rt, Q21(), RunOptions{ScaleBytes: 0.002, Delay: 5})
	eng.Run()
	if got := exec.StageJobs()[0].SubmitTime; got != 5 {
		t.Fatalf("first stage submitted at %v, want 5", got)
	}
	if exec.StartTime != 5 {
		t.Fatalf("StartTime = %v", exec.StartTime)
	}
}

func TestTwoQueriesConcurrently(t *testing.T) {
	eng, rt := newRT(t)
	e9, err := Run(rt, Q9(), RunOptions{ScaleBytes: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	e21, err := Run(rt, Q21(), RunOptions{ScaleBytes: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !e9.Done() || !e21.Done() {
		t.Fatal("concurrent queries did not both finish")
	}
}

// q1 is a light single-scan plan (the shape of TPC-H Q1): one heavy
// scan-and-aggregate, then a tiny sort.
func q1() Query {
	return Query{
		Name: "q1",
		Stages: []Stage{
			{Label: "scan-lineitem", InputGB: 46, ShuffleGB: 6, OutputGB: 0.5, MapCPU: 0.020, ReduceCPU: 0.020},
			{Label: "sort", InputGB: 0.5, ShuffleGB: 0.6, OutputGB: 1e-5, MapCPU: 0.012, ReduceCPU: 0.015},
		},
	}
}

func TestQ1RunsEndToEnd(t *testing.T) {
	eng, rt := newRT(t)
	exec, err := Run(rt, q1(), RunOptions{ScaleBytes: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !exec.Done() || exec.Failed() {
		t.Fatal("Q1 incomplete")
	}
}

func TestQueryFailurePropagates(t *testing.T) {
	eng, rt := newRT(t)
	exec, err := Run(rt, Q21(), RunOptions{ScaleBytes: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	exec.OnDone(func(e *Execution) { fired = true })
	// Kill 3 of 4 nodes mid-flight: some stage must lose its input
	// (replication 2 in this harness) and the query must abort.
	eng.Schedule(2, func() {
		rt.FailNode(0)
		rt.FailNode(1)
		rt.FailNode(2)
	})
	eng.Run()
	if exec.Done() {
		t.Fatal("query claims success after catastrophic failure")
	}
	if !exec.Failed() {
		// Losing 3/4 nodes with replication 2 must lose some block of
		// some stage input.
		t.Fatalf("query neither done nor failed (stages=%d)", len(exec.StageJobs()))
	}
	if !fired {
		t.Fatal("OnDone not fired for failed query")
	}
}
