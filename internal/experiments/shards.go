package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ibis/internal/cluster"
	"ibis/internal/metrics"
)

// ShardsRow is one run of the sharded-fabric benchmark scenario. The
// deterministic fields (everything except the wall times) must be
// identical for every worker count — the table itself demonstrates the
// pin.
type ShardsRow struct {
	Workers    int
	Duration   float64 // virtual seconds
	Events     uint64
	Windows    uint64 // fabric synchronization windows
	ParWindows uint64 // windows with ≥2 active shards (worker-pool path)
	Messages   uint64 // cross-shard messages delivered
	Digest     string // sha256 prefix of the merged JSONL trace
	Violations uint64 // audit violations (must be 0)
	Wall       time.Duration
	// ShardLoad is the per-shard occupancy: the coordinator event
	// fraction here is the run's measured serial term (Amdahl).
	ShardLoad metrics.ShardStats
}

// ShardsResult reports the sharded parallel-simulation benchmark: the
// Figure 3 HDD co-run (WordCount vs TeraSort under coordinated
// SFQ(D2)) executed on the sharded fabric (8 node shards, 2 metadata
// shards, the coordinator) at 1 worker and at N workers, with traces
// digested and invariants audited on both.
//
// String prints only deterministic fields; wall-clock times and the
// speedup — which vary run to run — are surfaced on stderr through
// StderrNote, preserving ibis-bench's byte-identical-stdout guarantee.
type ShardsResult struct {
	Scale     float64
	Lookahead float64
	Rows      []ShardsRow
	Match     bool // parallel run bit-identical to serial run
}

// shardsScenario is the Figure 3-class contention workload the shards
// benchmark runs: the paper's interference pair on the standard 8-node
// HDD cluster with the broker coordinating.
func shardsScenario(scale float64, workers int) Options {
	return Options{
		Scale:         scale,
		Policy:        cluster.SFQD2,
		Coordinate:    true,
		Seed:          42,
		TraceCapacity: 1 << 15,
		Audit:         true,
		Shards:        workers,
	}
}

// ShardsOnce executes the shards scenario a single time at the given
// worker count — the root benchmark suite's entry point.
func ShardsOnce(scale float64, workers int) (ShardsRow, error) {
	return shardsRun(scale, workers)
}

// CorunObserved runs the shards scenario with the observers chosen: a
// trace ring of traceCapacity records (0 = off) and the auditor. shards
// is the fabric's worker count; 0 runs the one-engine cluster. The root
// benchmark suite times it bare, traced and audited to gate what the
// observers cost.
func CorunObserved(scale float64, shards, traceCapacity int, audit bool) (*Result, error) {
	opts := shardsScenario(scale, shards)
	opts.TraceCapacity, opts.Audit = traceCapacity, audit
	return Run(opts, []Entry{wordCount(scale, 1), teraSortContender(scale, 1)})
}

func shardsRun(scale float64, workers int) (ShardsRow, error) {
	start := time.Now()
	res, err := Run(shardsScenario(scale, workers),
		[]Entry{wordCount(scale, 1), teraSortContender(scale, 1)})
	if err != nil {
		return ShardsRow{}, err
	}
	wall := time.Since(start)
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		return ShardsRow{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	row := ShardsRow{
		Workers:    workers,
		Duration:   res.Duration,
		Events:     res.EventsFired,
		Digest:     fmt.Sprintf("%x", sum[:8]),
		Violations: res.Audit.ViolationCount(),
		Wall:       wall,
	}
	if res.FabricStats != nil {
		row.Windows = res.FabricStats.Windows
		row.ParWindows = res.FabricStats.ParallelWindows
		row.Messages = res.FabricStats.Messages
	}
	row.ShardLoad = res.ShardLoad
	return row, nil
}

// Shards runs the sharded-fabric benchmark at 1 worker and at workers
// workers (values below 2 are raised to 2 so the comparison exists).
func Shards(scale float64, workers int) (*ShardsResult, error) {
	if workers < 2 {
		workers = 2
	}
	out := &ShardsResult{Scale: scale, Lookahead: cluster.DefaultLookahead}
	for _, w := range []int{1, workers} {
		row, err := shardsRun(scale, w)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	a, b := out.Rows[0], out.Rows[1]
	out.Match = a.Digest == b.Digest && a.Duration == b.Duration &&
		a.Events == b.Events && a.Violations == b.Violations
	return out, nil
}

// GateErr reports the determinism pin as an error: a parallel run
// whose trace digest (or any deterministic field) differs from the
// serial run is a correctness failure, not a perf data point —
// ibis-bench exits non-zero on it.
func (r *ShardsResult) GateErr() error {
	if len(r.Rows) == 2 && !r.Match {
		return fmt.Errorf("parallel run (workers=%d, digest %s) does not match serial run (digest %s)",
			r.Rows[1].Workers, r.Rows[1].Digest, r.Rows[0].Digest)
	}
	if len(r.Rows) == 2 && (r.Rows[0].Violations > 0 || r.Rows[1].Violations > 0) {
		return fmt.Errorf("audit violations: serial=%d parallel=%d",
			r.Rows[0].Violations, r.Rows[1].Violations)
	}
	return nil
}

// Speedup returns serial wall / parallel wall (0 until both rows ran).
func (r *ShardsResult) Speedup() float64 {
	if len(r.Rows) != 2 || r.Rows[1].Wall <= 0 {
		return 0
	}
	return r.Rows[0].Wall.Seconds() / r.Rows[1].Wall.Seconds()
}

// String renders the deterministic comparison table.
func (r *ShardsResult) String() string {
	var b strings.Builder
	shards := ""
	if len(r.Rows) > 0 && r.Rows[0].ShardLoad.Shards() > 0 {
		shards = fmt.Sprintf("%d shards, ", r.Rows[0].ShardLoad.Shards())
	}
	fmt.Fprintf(&b, "Sharded simulation: Fig03-class HDD co-run, %slookahead %gs (scale %.3g)\n", shards, r.Lookahead, r.Scale)
	fmt.Fprintf(&b, "  %-8s %12s %10s %9s %10s %9s %18s %6s\n",
		"workers", "duration(s)", "events", "windows", "parallel", "messages", "trace digest", "viol")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8d %12.1f %10d %9d %10d %9d %18s %6d\n",
			row.Workers, row.Duration, row.Events, row.Windows, row.ParWindows, row.Messages, row.Digest, row.Violations)
	}
	fmt.Fprintf(&b, "  parallel run bit-identical to serial: %v\n", r.Match)
	return b.String()
}

// StderrNote reports the wall-clock comparison (nondeterministic, so
// not part of String). GOMAXPROCS is included because worker count is
// logical parallelism only — on a single-core host the speedup is
// honestly ~1.0x and the determinism pin is the point.
func (r *ShardsResult) StderrNote() string {
	if len(r.Rows) != 2 {
		return ""
	}
	note := fmt.Sprintf("shards=%d speedup=%.2fx (serial %.2fs, parallel %.2fs, gomaxprocs=%d)",
		r.Rows[1].Workers, r.Speedup(), r.Rows[0].Wall.Seconds(), r.Rows[1].Wall.Seconds(),
		runtime.GOMAXPROCS(0))
	if r.Rows[1].ShardLoad.Shards() > 0 {
		note += "\n" + r.Rows[1].ShardLoad.Note()
	}
	return note
}
