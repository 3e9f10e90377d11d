package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// childResult is one child process's report to the parent.
type childResult struct {
	// WallS is the host wall time of the repetition's simulation calls.
	WallS    float64            `json:"wall_s"`
	Failures []string           `json:"failures,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Digest   string             `json:"digest,omitempty"`
	Go       goStats            `json:"go"`
	// Setup holds the seconds per construction of each timed setup batch.
	Setup []float64 `json:"setup_s,omitempty"`
	// Profile is the CPU time attributed to each module, in nanoseconds.
	Profile map[string]int64 `json:"profile_ns,omitempty"`
	Spans   []span           `json:"spans,omitempty"`
}

// goStats are the Go runtime's own counts for the whole child.
type goStats struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCycles   float64 `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goStats{
		AllocBytes: float64(s[0].Value.Uint64()),
		GCCycles:   float64(s[1].Value.Uint64()),
		GCCPUS:     s[2].Value.Float64(),
	}
}

// runChild runs one repetition ("run") or the timed constructions
// ("setup") of a workload, or the reference kernel ("ref"), in this
// process and reports to stdout.
func runChild(mode, name string, seed uint64, profile bool, stdout, stderr io.Writer) int {
	if mode == "ref" {
		t0 := time.Now()
		digest := refKernel()
		return report(childResult{WallS: time.Since(t0).Seconds(), Digest: digest}, stdout, stderr)
	}
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", name)
		return 2
	}
	var sp *spans
	if profile {
		sp = &spans{t0: time.Now()}
	}
	var r childResult
	switch mode {
	case "setup":
		for i := 0; i < setupSamples; i++ {
			runtime.GC() // no sample pays for collecting an earlier one's garbage
			t0 := time.Now()
			for k := 0; k < w.setupBatch; k++ {
				if err := w.setup(seed, sp); err != nil {
					r.Failures = append(r.Failures, err.Error())
				}
			}
			r.Setup = append(r.Setup, time.Since(t0).Seconds()/float64(w.setupBatch))
		}
	case "run":
		var prof bytes.Buffer
		if profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fmt.Fprintln(stderr, "starting CPU profile:", err)
				return 1
			}
		}
		end := sp.begin("workload." + w.name)
		o := w.unit(seed, sp)
		end()
		if profile {
			pprof.StopCPUProfile()
			attr, err := attribute(prof.Bytes())
			if err != nil {
				fmt.Fprintln(stderr, "reading CPU profile:", err)
				return 1
			}
			r.Profile = attr
		}
		r.WallS, r.Failures, r.Counters, r.Digest = o.wallS, o.failures, o.counters, o.digest
		r.Go = readGoStats()
	default:
		fmt.Fprintf(stderr, "unknown child mode %q\n", mode)
		return 2
	}
	if sp != nil {
		r.Spans = sp.list
	}
	return report(r, stdout, stderr)
}

func report(r childResult, stdout, stderr io.Writer) int {
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "writing report:", err)
		return 1
	}
	return 0
}

// span is one timed call the benchmark made into a layer.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Run is the repetition the span belongs to, -1 for setup.
	Run int `json:"run"`
}

// spans records nested spans in memory. A nil *spans records nothing,
// which is how untraced repetitions run.
type spans struct {
	t0   time.Time
	list []span
	open []int
}

// begin opens a span and returns the function that closes it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	i := len(s.list)
	s.list = append(s.list, span{Name: name, Start: time.Since(s.t0).Seconds(), Parent: parent})
	s.open = append(s.open, i)
	return func() {
		s.list[i].End = time.Since(s.t0).Seconds()
		s.open = s.open[:len(s.open)-1]
	}
}
