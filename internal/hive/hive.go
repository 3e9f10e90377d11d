// Package hive models the Hive data-warehouse framework the paper uses
// for its multi-framework experiments (Section 7.4): a SQL query
// compiles to a DAG of sequential MapReduce stages, each reading the
// previous stage's materialized HDFS output, shuffling through local
// storage, and writing its result back to HDFS. The two TPC-H queries
// the paper evaluates are provided with stage volumes matching the
// published totals:
//
//	Q9  (product type profit):            53 GB input, 120 GB
//	    intermediate I/O, ≤15 jobs, 5 KB final output.
//	Q21 (suppliers who kept orders waiting): 45 GB input, 40 GB
//	    intermediate I/O, ≤15 jobs, 2.6 GB final output.
package hive

import (
	"fmt"

	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
)

// Stage is one MapReduce job in a query plan. Volumes are fractions of
// gigabytes at full (paper) scale.
type Stage struct {
	// Label names the stage ("scan-lineitem", "join-1", ...).
	Label string
	// InputGB is the HDFS data read by the stage's maps (initial table
	// scans or previous stages' materialized outputs).
	InputGB float64
	// ShuffleGB is the intermediate (local FS + network) volume.
	ShuffleGB float64
	// OutputGB is the HDFS output materialized for later stages (or
	// the final result).
	OutputGB float64
	// MapCPU / ReduceCPU are seconds per MB.
	MapCPU    float64
	ReduceCPU float64
}

// Query is a named sequence of stages executed one after another, as
// Hive's execution engine "spawns a series of MapReduce jobs for query
// fulfillment".
type Query struct {
	Name   string
	Stages []Stage
}

// TotalInputGB sums the first-stage scan volumes (the paper's "initial
// input" figure counts the table scans).
func (q Query) TotalInputGB() float64 {
	t := 0.0
	for _, s := range q.Stages {
		if len(s.Label) >= 4 && s.Label[:4] == "scan" {
			t += s.InputGB
		}
	}
	return t
}

// TotalShuffleGB sums intermediate volume across stages.
func (q Query) TotalShuffleGB() float64 {
	t := 0.0
	for _, s := range q.Stages {
		t += s.ShuffleGB
	}
	return t
}

// FinalOutputGB is the last stage's output.
func (q Query) FinalOutputGB() float64 {
	if len(q.Stages) == 0 {
		return 0
	}
	return q.Stages[len(q.Stages)-1].OutputGB
}

// Q9 returns the TPC-H Q9 (product type profit) plan: five table scans
// feeding a deep join/aggregation pipeline. Scans total 53 GB, shuffle
// totals 120 GB, final output is 5 KB.
func Q9() Query {
	return Query{
		Name: "q9",
		Stages: []Stage{
			{Label: "scan-lineitem-part", InputGB: 40, ShuffleGB: 30, OutputGB: 20, MapCPU: 0.012, ReduceCPU: 0.015},
			{Label: "scan-orders-supplier-partsupp", InputGB: 13, ShuffleGB: 10, OutputGB: 8, MapCPU: 0.012, ReduceCPU: 0.015},
			{Label: "join-1", InputGB: 28, ShuffleGB: 30, OutputGB: 15, MapCPU: 0.018, ReduceCPU: 0.022},
			{Label: "join-2", InputGB: 15, ShuffleGB: 20, OutputGB: 10, MapCPU: 0.018, ReduceCPU: 0.022},
			{Label: "agg-1", InputGB: 10, ShuffleGB: 15, OutputGB: 5, MapCPU: 0.015, ReduceCPU: 0.020},
			{Label: "agg-2", InputGB: 5, ShuffleGB: 10, OutputGB: 2, MapCPU: 0.015, ReduceCPU: 0.020},
			{Label: "sort", InputGB: 2, ShuffleGB: 4, OutputGB: 0.5, MapCPU: 0.012, ReduceCPU: 0.015},
			{Label: "final", InputGB: 0.5, ShuffleGB: 1, OutputGB: 5e-6, MapCPU: 0.012, ReduceCPU: 0.015},
		},
	}
}

// Q21 returns the TPC-H Q21 (suppliers who kept orders waiting) plan:
// scans total 45 GB, shuffle totals 40 GB, final output 2.6 GB.
func Q21() Query {
	return Query{
		Name: "q21",
		Stages: []Stage{
			{Label: "scan-lineitem", InputGB: 30, ShuffleGB: 12, OutputGB: 10, MapCPU: 0.012, ReduceCPU: 0.015},
			{Label: "scan-orders-supplier-nation", InputGB: 15, ShuffleGB: 8, OutputGB: 6, MapCPU: 0.012, ReduceCPU: 0.015},
			{Label: "join-1", InputGB: 16, ShuffleGB: 8, OutputGB: 6, MapCPU: 0.020, ReduceCPU: 0.025},
			{Label: "join-2", InputGB: 6, ShuffleGB: 5, OutputGB: 3, MapCPU: 0.020, ReduceCPU: 0.025},
			{Label: "agg", InputGB: 3, ShuffleGB: 4, OutputGB: 2.8, MapCPU: 0.015, ReduceCPU: 0.020},
			{Label: "sort", InputGB: 2.8, ShuffleGB: 3, OutputGB: 2.6, MapCPU: 0.012, ReduceCPU: 0.015},
		},
	}
}

// reducesPerStage bounds each stage's reduce parallelism.
const reducesPerStage = 12

// RunOptions control query execution.
type RunOptions struct {
	// Weight is the I/O weight every stage carries. It seeds the
	// query's node in the share tree; the control plane can reweight
	// the query live while it runs.
	Weight float64
	// Tenant attributes the query to a named tenant in the share tree
	// (empty = the query's own implicit singleton tenant).
	Tenant string
	// CPUWeight / CPUQuota mirror the mapreduce spec fields.
	CPUWeight float64
	CPUQuota  int
	// Pool assigns every stage to a Fair Scheduler pool (define its
	// caps on the runtime before calling Run).
	Pool string
	// ScaleBytes scales all stage volumes (1 = paper scale, GB units).
	ScaleBytes float64
	// Delay postpones the first stage's submission.
	Delay float64
}

// Execution tracks a running query.
type Execution struct {
	Query     Query
	App       iosched.AppID
	StartTime float64
	EndTime   float64
	done      bool
	failed    bool
	onDone    []func(*Execution)
	stages    []*mapreduce.Job
}

// Done reports successful completion of the final stage.
func (e *Execution) Done() bool { return e.done && !e.failed }

// Failed reports that a stage failed (e.g. node failures lost its
// input); no further stages run.
func (e *Execution) Failed() bool { return e.failed }

// Runtime returns end-to-end query latency (first submission to final
// stage completion).
func (e *Execution) Runtime() float64 { return e.EndTime - e.StartTime }

// OnDone registers a completion callback.
func (e *Execution) OnDone(fn func(*Execution)) { e.onDone = append(e.onDone, fn) }

// StageJobs returns the per-stage jobs materialized so far.
func (e *Execution) StageJobs() []*mapreduce.Job { return e.stages }

// Run submits a query to the MapReduce runtime, chaining each stage on
// the completion of the previous one. All stages share one application
// ID, so the interposed schedulers see the query as a single flow with
// one I/O weight — how IBIS manages a Hive query end to end.
func Run(rt *mapreduce.Runtime, q Query, opts RunOptions) (*Execution, error) {
	if len(q.Stages) == 0 {
		return nil, fmt.Errorf("hive: query %q has no stages", q.Name)
	}
	if opts.Weight <= 0 {
		opts.Weight = 1
	}
	if opts.ScaleBytes <= 0 {
		opts.ScaleBytes = 1
	}
	app := iosched.AppID(fmt.Sprintf("hive-%s", q.Name))
	exec := &Execution{Query: q, App: app, StartTime: opts.Delay}

	// Every stage's spec is built and validated here, so a malformed
	// later stage fails the submission, not the run.
	gb := 1e9 * opts.ScaleBytes
	specs := make([]mapreduce.JobSpec, len(q.Stages))
	for i, st := range q.Stages {
		specs[i] = mapreduce.JobSpec{
			Name:              fmt.Sprintf("%s-%s", q.Name, st.Label),
			App:               app,
			Weight:            opts.Weight,
			Tenant:            opts.Tenant,
			CPUWeight:         opts.CPUWeight,
			CPUQuota:          opts.CPUQuota,
			Pool:              opts.Pool,
			InputBytes:        st.InputGB * gb,
			MapOutputBytes:    st.ShuffleGB * gb,
			NumReduces:        reducesPerStage,
			OutputBytes:       st.OutputGB * gb,
			MapCPUSecPerMB:    st.MapCPU,
			ReduceCPUSecPerMB: st.ReduceCPU,
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	submit := func(i int, delay float64) error {
		job, err := rt.Submit(specs[i], delay)
		if err == nil {
			exec.stages = append(exec.stages, job)
		}
		return err
	}
	if err := submit(0, opts.Delay); err != nil {
		return nil, err
	}
	finish := func(failed bool) {
		exec.failed = failed
		exec.done = true
		exec.EndTime = rt.Engine().Now()
		for _, fn := range exec.onDone {
			fn(exec)
		}
	}
	// Chain the remaining stages via the runtime's completion hook.
	rt.OnJobDone(func(j *Job) {
		if exec.done || j != exec.stages[len(exec.stages)-1] {
			return
		}
		switch {
		case j.Failed():
			finish(true) // a lost stage aborts the query
		case len(exec.stages) < len(specs):
			if submit(len(exec.stages), 0) != nil {
				finish(true) // so does a stage the runtime refuses
			}
		default:
			finish(false)
		}
	})
	return exec, nil
}

// Job aliases mapreduce.Job for the OnJobDone callback signature.
type Job = mapreduce.Job
