// Command ibis-bench is the repository benchmark. It runs one workload
// at a time. Every repetition runs in a fresh child process that
// re-executes this binary, so the parent measures each repetition from
// outside — its wall time, user+sys CPU and peak RSS — and no
// repetition's heap affects another. A fixed reference kernel, timed in
// its own child after every repetition, gives the host's speed at that
// moment, and the reported times are scaled by it (see reference.go).
//
//	ibis-bench --workload hollow-1000 --seed 3 --seconds 20 --trace 0
//	ibis-bench -compare BASE HEAD [-claim hollow-1000/wall_s]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload again under the CPU
// profiler with spans and reports the per-layer metrics. Every metric
// is also printed to standard error as "workload metric value unit".
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibis-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	child := fs.String("child", "", "internal: run one repetition, setup or kernel (run, setup or ref) in this process")
	profile := fs.Bool("profile", false, "internal: record spans and a CPU profile in the child")
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "how long to measure each workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result sets: -compare BASE HEAD")
	claim := fs.String("claim", "", "with -compare: test a claimed gain on workload/metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, *name, *seed, *profile, stdout, stderr)
	}
	root := repoRoot()
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: ibis-bench -compare BASE HEAD [-claim workload/metric]")
			return 2
		}
		ok, err := compareResults(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), *claim, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloadSet
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	outDir := filepath.Join(root, "benchmark", "out")
	code := 0
	for _, w := range selected {
		res := measure(w, *seed, *seconds, *trace == 1, outDir, stderr)
		if err := res.write(outDir); err != nil {
			res.fail(1, fmt.Sprintf("writing results: %v", err))
		}
		res.print(stdout, stderr)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadSet {
		names = append(names, w.name)
	}
	return names
}

// repoRoot is the checkout root: the working directory when the
// benchmark runs from there (as run.sh does), its parent when it runs
// from the benchmark's own directory (go run ., go test).
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome for one workload. The results file
// holds all of it; standard output gets the contract's four keys.
type result struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     int                  `json:"trace"`
	Host      host                 `json:"host"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Metrics   map[string]value     `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
}

func (r *result) fail(runs int, why string) {
	r.Failed += runs
	r.Failures = append(r.Failures, why)
	r.Correct = false
}

func (r *result) set(def metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(1, fmt.Sprintf("%s is %v", def.name, v))
		v = 0
	}
	r.Metrics[def.name] = value{v, def.unit}
}

// write stores the result as one JSON line in the output directory,
// where -compare reads it back.
func (r *result) write(dir string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// print writes every metric to stderr as "workload metric value unit"
// and the contract's JSON object as the last line of stdout.
func (r *result) print(stdout, stderr io.Writer) {
	for _, def := range reportedMetrics(r.Trace == 1) {
		v := r.Metrics[def.name]
		fmt.Fprintf(stderr, "%s %s %.6g %s\n", r.Workload, def.name, v.Value, v.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(stderr, "%s FAILED: %s\n", r.Workload, f)
	}
	b, _ := json.Marshal(summary{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(stdout, "%s\n", b)
}

// summary is the last line of standard output: exactly these four keys.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
