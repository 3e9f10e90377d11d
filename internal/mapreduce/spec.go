// Package mapreduce implements the simulated MapReduce/YARN execution
// engine: jobs with map and reduce tasks, their multi-phase I/O
// (persistent input reads, intermediate spills, shuffle transfers,
// merge reads, replicated output writes), a weighted fair CPU-slot
// scheduler with memory constraints and data-locality preference, and
// per-job performance accounting.
//
// Every I/O a task performs is tagged with its application's ID and I/O
// weight and submitted through the node's interposed scheduler — the
// package is the workload generator that exercises the IBIS scheduling
// framework exactly the way Hadoop tasks exercise the real prototype.
package mapreduce

import (
	"fmt"
	"math"

	"ibis/internal/iosched"
)

// JobSpec describes one MapReduce application's shape. All byte figures
// are cluster-wide totals.
type JobSpec struct {
	// Name labels the job ("wordcount", "teragen", ...). The runtime
	// derives the AppID from it.
	Name string
	// App, if set, overrides the generated application ID. Multi-job
	// applications (a Hive query's sequential stages) share one ID so
	// the I/O schedulers treat them as a single flow.
	App iosched.AppID

	// Weight is the I/O service weight given to IBIS. Must be > 0. At
	// submission it seeds the job's node in the cluster's share tree;
	// the control plane can change it live afterwards
	// (shares.Tree.SetAppWeight / Sim.SetWeight).
	Weight float64
	// Tenant attributes the job to a named tenant in the share tree, so
	// cluster-wide proportionality is enforced between tenants and the
	// job competes under its tenant's aggregate share. Empty keeps the
	// job in its own implicit singleton tenant (flat per-app behavior).
	Tenant string
	// CPUWeight is the fair-scheduler share for CPU slots (default 1).
	CPUWeight float64
	// CPUQuota caps the job's concurrently used cores cluster-wide
	// (0 = unlimited). The paper pins CPU allocations (e.g. half the 96
	// cores) while varying only the I/O policy.
	CPUQuota int
	// Pool assigns the job to a named Fair Scheduler pool (queue); the
	// pool's aggregate core/memory caps bound all member jobs together.
	// Empty = no pool.
	Pool string

	// InputBytes is the DFS input read by map tasks. Zero for
	// generator jobs (TeraGen synthesizes its data).
	InputBytes float64
	// NumMaps overrides the map count; if zero it is derived from
	// InputBytes and the DFS block size. Generator jobs must set it.
	NumMaps int
	// MapOutputBytes is the total intermediate data produced by the map
	// phase (spilled locally, then shuffled to reduces).
	MapOutputBytes float64
	// DirectOutputBytes is output written straight to the DFS by map
	// tasks (map-only jobs like TeraGen).
	DirectOutputBytes float64

	// NumReduces is the reduce task count (0 for map-only jobs).
	NumReduces int
	// OutputBytes is the final DFS output written by the reduce phase.
	OutputBytes float64

	// MapCPUSecPerMB is seconds of computation per MB of map input (or
	// generated output for generator jobs).
	MapCPUSecPerMB float64
	// ReduceCPUSecPerMB is seconds of computation per MB of shuffle
	// input.
	ReduceCPUSecPerMB float64

	// MapMemGB and ReduceMemGB are per-task memory demands; defaults
	// follow the paper (1 core + 2 GB per map, 1 core + 8 GB per
	// reduce).
	MapMemGB    float64
	ReduceMemGB float64

	// OutputReplication overrides the DFS replication factor for this
	// job's output (0 = namenode default). dfs.replication=3 in
	// Table 1.
	OutputReplication int
}

func (s *JobSpec) withDefaults() JobSpec {
	out := *s
	if out.CPUWeight <= 0 {
		out.CPUWeight = 1
	}
	if out.MapMemGB <= 0 {
		out.MapMemGB = 2
	}
	if out.ReduceMemGB <= 0 {
		out.ReduceMemGB = 8
	}
	return out
}

// Validate reports configuration errors.
func (s *JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("mapreduce: job without a name")
	}
	if !finite(s.Weight, s.InputBytes, s.MapOutputBytes, s.DirectOutputBytes, s.OutputBytes, s.MapCPUSecPerMB, s.ReduceCPUSecPerMB) {
		return fmt.Errorf("mapreduce: job %q: non-finite weight, byte volume or CPU cost", s.Name)
	}
	if s.Weight <= 0 {
		return fmt.Errorf("mapreduce: job %q: weight %g must be positive", s.Name, s.Weight)
	}
	if s.InputBytes < 0 || s.MapOutputBytes < 0 || s.DirectOutputBytes < 0 || s.OutputBytes < 0 {
		return fmt.Errorf("mapreduce: job %q: negative byte volume", s.Name)
	}
	if s.InputBytes == 0 && s.NumMaps == 0 {
		return fmt.Errorf("mapreduce: job %q: generator jobs must set NumMaps", s.Name)
	}
	if s.NumReduces < 0 {
		return fmt.Errorf("mapreduce: job %q: negative reduce count", s.Name)
	}
	if s.NumReduces == 0 && (s.MapOutputBytes > 0 || s.OutputBytes > 0) {
		return fmt.Errorf("mapreduce: job %q: shuffle/output bytes but no reduces", s.Name)
	}
	if s.MapCPUSecPerMB < 0 || s.ReduceCPUSecPerMB < 0 {
		return fmt.Errorf("mapreduce: job %q: negative CPU cost", s.Name)
	}
	return nil
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// State is a job's lifecycle phase.
type State int

const (
	// Pending: submitted, no task has started.
	Pending State = iota
	// Running: at least one task started.
	Running
	// Done: all tasks finished.
	Done
	// Failed: unrecoverable (e.g. every replica of an input block was
	// lost to node failures).
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Failed:
		return "failed"
	default:
		return "done"
	}
}

// Result summarizes a completed job for experiment reporting.
type Result struct {
	App        iosched.AppID
	Name       string
	SubmitTime float64
	StartTime  float64
	// MapDoneTime is when the last map task finished.
	MapDoneTime float64
	EndTime     float64
}

// Runtime returns the job's end-to-end runtime (submit to completion),
// the figure the paper's runtime bars report.
func (r Result) Runtime() float64 { return r.EndTime - r.SubmitTime }

// MapPhase returns the duration until the last map finished.
func (r Result) MapPhase() float64 { return r.MapDoneTime - r.SubmitTime }

// ReducePhase returns the trailing portion after the last map finished.
func (r Result) ReducePhase() float64 { return r.EndTime - r.MapDoneTime }
