package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

var (
	wallS    = metricDef{"wall_s", "s"}
	cpuS     = metricDef{"cpu_s", "s"}
	maxRSSMB = metricDef{"max_rss_mb", "MB"}
	setupS   = metricDef{"setup_s", "s"}
)

// endToEndMetrics are what an untraced run reports: each the median
// over the run's repetitions.
var endToEndMetrics = []metricDef{wallS, cpuS, maxRSSMB, setupS}

// counterMetrics are the deterministic per-layer counts a repetition
// reports. A workload whose layers do not expose a count reports 0 for
// it. Times in sim_s are simulated, not host, seconds.
var counterMetrics = []metricDef{
	{"sim.events", "count"},
	{"sim.windows", "count"},
	{"sim.parallel_windows", "count"},
	{"sim.cross_shard_msgs", "count"},
	{"sim.coord_event_frac", "fraction"},
	{"iosched.requests", "count"},
	{"iosched.peak_in_flight", "count"},
	{"iosched.queue_wait_p50_s", "sim_s"},
	{"iosched.queue_wait_p99_s", "sim_s"},
	{"iosched.fairness_ratio", "ratio"},
	{"storage.service_p50_s", "sim_s"},
	{"storage.service_p99_s", "sim_s"},
	{"broker.exchanges", "count"},
	{"broker.fed_syncs", "count"},
	{"broker.fed_snapshots", "count"},
	{"broker.fed_bytes", "bytes"},
	{"broker.compression_x", "ratio"},
	{"trace.records", "count"},
	{"audit.checks", "count"},
	{"audit.violations", "count"},
	{"mapreduce.makespan_s", "sim_s"},
	{"experiments.paper_err_pp", "pp"},
}

// Host-measured per-layer metrics of the untraced reference repetition.
var (
	nsPerEvent = metricDef{"sim.host_ns_per_event", "ns"}
	allocBytes = metricDef{"go.alloc_bytes", "bytes"}
	gcCycles   = metricDef{"go.gc_cycles", "count"}
	gcCPUS     = metricDef{"go.gc_cpu_s", "s"}
)

// profileModules are the layers CPU profile samples are attributed to:
// the repository's modules, with sim split into its event core, fabric
// and processor-sharing resource.
var profileModules = []string{
	"sim.engine", "sim.fabric", "sim.ps", "storage", "iosched", "shares",
	"broker", "cluster", "mapreduce", "dfs", "hive", "cgroups", "trace",
	"audit", "scale", "workloads", "experiments", "metrics", "faults",
	goRuntime,
}

func selfS(module string) metricDef    { return metricDef{module + ".self_s", "s"} }
func selfFrac(module string) metricDef { return metricDef{module + ".self_frac", "fraction"} }

// reportedMetrics lists, in order, the metrics a run reports: the
// end-to-end ones untraced, the per-layer ones traced.
func reportedMetrics(traced bool) []metricDef {
	if !traced {
		return endToEndMetrics
	}
	defs := append([]metricDef(nil), counterMetrics...)
	defs = append(defs, nsPerEvent, allocBytes, gcCycles, gcCPUS)
	for _, m := range profileModules {
		defs = append(defs, selfS(m), selfFrac(m))
	}
	return defs
}

const (
	// minReps untraced repetitions run however long they take; after
	// them a run stops starting repetitions that would end past its
	// measurement window.
	minReps = 3
	maxReps = 50
	// setupSamples timed setup batches run in one setup child. The
	// batches of one child agree closely, different children less so,
	// so a run times set-up in a fresh child every iteration.
	setupSamples = 3
)

// host describes the machine a result was measured on.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentHost() host {
	return host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// usage is what the parent reads about a finished child from outside.
type usage struct {
	wallS, cpuS, rssMB float64
}

// spawn runs one child repetition of this binary and decodes its report.
func spawn(args []string, stderr io.Writer) (childResult, usage, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, usage{}, err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	t0 := time.Now()
	err = cmd.Run()
	u := usage{wallS: time.Since(t0).Seconds()}
	if err != nil {
		return childResult{}, u, fmt.Errorf("child %v: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		u.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	var c childResult
	if err := json.Unmarshal(out.Bytes(), &c); err != nil {
		return childResult{}, u, fmt.Errorf("child %v: decoding report: %w", args, err)
	}
	return c, u, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func childArgs(mode string, w workload, seed uint64, profile bool) []string {
	args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if profile {
		args = append(args, "-profile")
	}
	return args
}

// measure runs one workload for the measurement window. Untraced, it
// reports the end-to-end medians over its iterations, each time scaled
// by the host speed the reference kernel measured in the same iteration.
// Traced, it runs a setup child, one untraced reference repetition and
// then profiled ones, and reports the per-layer metrics; spans and the
// attribution go to outDir/trace-<workload>.json.
func measure(w workload, seed uint64, seconds float64, traced bool, outDir string, stderr io.Writer) *result {
	res := &result{
		Workload: w.name, Seed: seed, Host: currentHost(), Correct: true,
		Metrics: map[string]value{},
	}
	if traced {
		res.Trace = 1
	}

	// Traced, one setup child records the constructors' spans.
	var spans []span
	if traced {
		setup, _ := runSetup(res, w, seed, true, stderr)
		spans = appendSpans(nil, setup.Spans, -1)
	}

	// Untraced, every iteration runs a setup child, a repetition and the
	// reference kernel, each in its own child; the kernel's time next to
	// the others gives their host speed. Every repetition makes the same
	// simulation runs from the same seed, so each must report the
	// reference repetition's counts and digest.
	var ref *childResult
	var walls, cpus, rsss, setups, speeds, hostWalls, hostCPUs, hostSetups, kernelWalls, iterTimes, tracedWalls []float64
	kernelDigest := ""
	profile := map[string]int64{}
	least := minReps
	if traced {
		least = 2 // the reference and one profiled repetition
	}
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if i >= least && time.Since(start).Seconds()+median(iterTimes) > seconds {
			break
		}
		t0 := time.Now()
		prof := traced && i > 0
		setupS, speed := 0.0, 0.0
		if !traced {
			_, setupS = runSetup(res, w, seed, false, stderr)
		}
		c, u, err := spawn(childArgs("run", w, seed, prof), stderr)
		if !traced {
			speed = referenceSpeed(res, &kernelDigest, &kernelWalls, stderr)
			if setupS > 0 {
				hostSetups = append(hostSetups, setupS)
				if speed > 0 {
					setups = append(setups, setupS*speed)
				}
			}
		}
		iterTimes = append(iterTimes, time.Since(t0).Seconds())
		res.Attempted += w.runs
		if err != nil {
			res.fail(w.runs, err.Error())
			continue
		}
		if len(c.Failures) > 0 {
			res.Failed += min(len(c.Failures), w.runs)
			res.Failures = append(res.Failures, c.Failures...)
			res.Correct = false
		}
		if ref == nil {
			ref = &c
		} else if c.Digest != ref.Digest || !reflect.DeepEqual(c.Counters, ref.Counters) {
			res.fail(w.runs-min(len(c.Failures), w.runs),
				fmt.Sprintf("repetition %d (profiled %v): simulated results differ from the reference repetition", i, prof))
		}
		if !prof {
			rsss = append(rsss, u.rssMB)
			hostWalls = append(hostWalls, c.WallS)
			hostCPUs = append(hostCPUs, u.cpuS)
			if speed > 0 {
				speeds = append(speeds, speed)
				walls = append(walls, c.WallS*speed)
				cpus = append(cpus, u.cpuS*speed)
			}
			continue
		}
		tracedWalls = append(tracedWalls, c.WallS)
		for m, ns := range c.Profile {
			profile[m] += ns
		}
		spans = appendSpans(spans, c.Spans, i)
	}
	if ref == nil {
		ref = &childResult{}
	}

	if !traced {
		res.Samples = map[string][]float64{
			wallS.name: walls, cpuS.name: cpus, maxRSSMB.name: rsss, setupS.name: setups,
			"host_wall_s": hostWalls, "host_cpu_s": hostCPUs, "host_setup_s": hostSetups,
			"kernel_s": kernelWalls, "speed": speeds,
		}
		res.set(wallS, median(walls))
		res.set(cpuS, median(cpus))
		res.set(maxRSSMB, median(rsss))
		res.set(setupS, median(setups))
		return res
	}

	for _, def := range counterMetrics {
		res.set(def, ref.Counters[def.name])
	}
	perEvent := 0.0
	if ev := ref.Counters["sim.events"]; ev > 0 {
		perEvent = ref.WallS * 1e9 / ev
	}
	res.set(nsPerEvent, perEvent)
	res.set(allocBytes, ref.Go.AllocBytes)
	res.set(gcCycles, ref.Go.GCCycles)
	res.set(gcCPUS, ref.Go.GCCPUS)
	var total int64
	for _, ns := range profile {
		total += ns
	}
	for _, m := range profileModules {
		self, frac := 0.0, 0.0
		if total > 0 {
			self = float64(profile[m]) / 1e9 / float64(len(tracedWalls))
			frac = float64(profile[m]) / float64(total)
		}
		res.set(selfS(m), self)
		res.set(selfFrac(m), frac)
	}

	overhead := 0.0
	if len(tracedWalls) > 0 && ref.WallS > 0 {
		overhead = median(tracedWalls)/ref.WallS - 1
	}
	fmt.Fprintf(stderr, "%s tracing overhead %+.1f%% (untraced %.3fs, traced median %.3fs over %d)\n",
		w.name, 100*overhead, ref.WallS, median(tracedWalls), len(tracedWalls))
	if err := writeTrace(outDir, res, overhead, profile, spans); err != nil {
		res.fail(1, fmt.Sprintf("writing trace: %v", err))
	}
	return res
}

// runSetup runs one setup child and returns its report and the median
// of its timed batches, in seconds per construction (0 when it failed).
func runSetup(res *result, w workload, seed uint64, profile bool, stderr io.Writer) (childResult, float64) {
	res.Attempted++
	c, _, err := spawn(childArgs("setup", w, seed, profile), stderr)
	switch {
	case err != nil:
		res.fail(1, err.Error())
		return c, 0
	case len(c.Failures) > 0:
		res.fail(1, "setup: "+c.Failures[0])
		return c, 0
	}
	return c, median(c.Setup)
}

// referenceSpeed runs the reference kernel in a child and returns the
// host's speed next to the repetition it follows: refNominalS over the
// kernel's wall time, 0 when the kernel failed. Every kernel run of a
// run must return the first one's checksum.
func referenceSpeed(res *result, digest *string, walls *[]float64, stderr io.Writer) float64 {
	res.Attempted++
	c, _, err := spawn([]string{"-child", "ref"}, stderr)
	switch {
	case err != nil:
		res.fail(1, err.Error())
		return 0
	case *digest != "" && c.Digest != *digest:
		res.fail(1, fmt.Sprintf("reference kernel returned %s, earlier %s", c.Digest, *digest))
		return 0
	case c.WallS <= 0:
		res.fail(1, "reference kernel took no time")
		return 0
	}
	*digest = c.Digest
	*walls = append(*walls, c.WallS)
	return refNominalS / c.WallS
}

// appendSpans adds one child's spans, stamped with its repetition (-1
// for setup), keeping parent indices valid in the combined list.
func appendSpans(all, child []span, run int) []span {
	base := len(all)
	for _, s := range child {
		s.Run = run
		if s.Parent >= 0 {
			s.Parent += base
		}
		all = append(all, s)
	}
	return all
}

// writeTrace stores the traced run's spans and CPU attribution.
func writeTrace(dir string, res *result, overhead float64, profile map[string]int64, spans []span) error {
	b, err := json.MarshalIndent(struct {
		Workload        string           `json:"workload"`
		Seed            uint64           `json:"seed"`
		Host            host             `json:"host"`
		TracingOverhead float64          `json:"tracing_overhead"`
		ProfileNS       map[string]int64 `json:"profile_ns"`
		Spans           []span           `json:"spans"`
	}{res.Workload, res.Seed, res.Host, overhead, profile, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), b, 0o644)
}

// median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so that the
// spread printed here is the spread a reader computes from the same
// values. With fewer than two values both are that value.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
