// Command ibis-bench regenerates the IBIS paper's tables and figures on
// the simulated cluster and prints paper-vs-measured rows.
//
// Usage:
//
//	ibis-bench [-scale 0.125] [-run fig06] [-parallel N] [-list]
//	           [-cpuprofile out.prof] [-memprofile out.prof]
//	           [-fault-seed 1 -fault-outages 2 -fault-loss 0.2
//	            -fault-restarts 2 -fault-degrades 1]
//
// The -fault-* flags parameterize the "fault-custom" experiment: a
// deterministic seed-driven fault schedule (broker outages, message
// loss/delay, scheduler restarts, device degradation) injected into
// the coordination plane of the uneven-presence microbenchmark, with
// invariant auditing on. "fault-matrix" runs the fixed scenario set.
//
// Without -run, every experiment executes in order. Experiments are
// independent deterministic simulations, so -parallel N (default
// GOMAXPROCS) fans them out across a bounded worker pool; results are
// printed strictly in experiment order, so stdout is byte-identical to
// a -parallel 1 run. Per-experiment wall times go to stderr (they vary
// run to run and would otherwise break that guarantee).
//
// Two independent levels of parallelism compose:
//
//   - -parallel N is experiment-level: whole experiments run
//     concurrently, each on its own single-threaded simulation.
//   - -shards N is intra-experiment: the "shards" experiment runs ONE
//     simulation across per-node engines with N worker goroutines
//     under conservative synchronization, bit-identical to N=1.
//
// Use -parallel for throughput over the whole suite and -shards to
// accelerate one large simulation; running both oversubscribes cores
// harmlessly (the schedulers time-slice) but measures neither cleanly,
// so benchmark runs should pin one of the two to 1. Experiments whose
// results are wall-clock comparisons (the "shards" experiment itself)
// print the nondeterministic numbers to stderr, e.g.
// "shards: shards=8 speedup=3.10x".
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"ibis/internal/experiments"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/scale"
)

// shardsFlag sets the worker-goroutine count for the intra-experiment
// parallel fabric (the "shards" experiment): the one simulation is
// partitioned into per-node engines advanced by this many workers,
// with results bit-identical to -shards 1.
var shardsFlag = flag.Int("shards", runtime.GOMAXPROCS(0),
	"worker goroutines inside the sharded-fabric experiment (1 = serial)")

// reweightFlag parameterizes the "reweight" experiment: a live weight
// change scripted as t=<time>,app=<id>,w=<weight>.
var reweightFlag = flag.String("reweight", "",
	"reweight schedule t=<time>,app=<id>,w=<weight> for the reweight experiment (empty = t=30,app=hot,w=8)")

// parseReweight turns the flag into a spec; the empty string keeps the
// default schedule.
func parseReweight(s string) (experiments.ReweightSpec, error) {
	spec := experiments.DefaultReweightSpec()
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("reweight: malformed field %q (want k=v)", kv)
		}
		switch k {
		case "t":
			var err error
			if spec.At, err = parseFinite(v); err != nil {
				return spec, fmt.Errorf("reweight: bad time %q", v)
			}
		case "app":
			spec.App = iosched.AppID(v)
		case "w":
			var err error
			if spec.Weight, err = parseFinite(v); err != nil {
				return spec, fmt.Errorf("reweight: bad weight %q", v)
			}
		default:
			return spec, fmt.Errorf("reweight: unknown field %q (want t/app/w)", k)
		}
	}
	return spec, nil
}

// parseFinite parses a whole decimal value, rejecting trailing input,
// NaN and ±Inf.
func parseFinite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not finite", v)
	}
	return f, err
}

// scaleSpecFlag and federationSpecFlag parameterize the "scale" and
// "federation" experiments: one hollow-node population each, as
// nodes=<n>,tenants=<n>,flows=<n>[,apps=<n>][,shards=<n>][,seed=<n>]
// [,horizon=<s>] and nodes=<n>,tenants=<n>,partitions=<n>[,apps=<n>]
// [,shards=<n>][,seed=<n>][,horizon=<s>].
var (
	scaleSpecFlag = flag.String("scale-spec", "",
		"hollow-node scale population nodes=,tenants=,flows=[,apps=][,shards=][,seed=][,horizon=] (empty = 200 nodes, 1000 tenants, 100k flows)")
	federationSpecFlag = flag.String("federation-spec", "",
		"federated broker population nodes=,tenants=,partitions=[,apps=][,shards=][,seed=][,horizon=] (empty = 200 nodes, 1000 tenants, 4 partitions)")
)

// parseHollowSpec fills cfg from a spec flag's k=v list; the empty
// string keeps cfg. shards= is the second leg's worker count. A
// coordinated cfg takes partitions=. With flows > 0 (the default
// target of peak in-flight requests) flows= is taken too, and the
// target sets the horizon through experiments.FlowHorizon unless a
// positive horizon= is given.
func parseHollowSpec(name, s string, cfg scale.Config, flows int) (scale.Config, error) {
	if s == "" {
		return cfg, nil
	}
	takesFlows, horizonSet := flows > 0, false
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("%s: malformed field %q (want k=v)", name, kv)
		}
		var err error
		switch {
		case k == "nodes":
			cfg.Nodes, err = strconv.Atoi(v)
		case k == "tenants":
			cfg.Tenants, err = strconv.Atoi(v)
		case k == "apps":
			cfg.AppsPerTenant, err = strconv.Atoi(v)
		case k == "flows" && takesFlows:
			flows, err = strconv.Atoi(v)
		case k == "partitions" && cfg.Coordinate:
			cfg.Partitions, err = strconv.Atoi(v)
		case k == "shards":
			cfg.Workers, err = strconv.Atoi(v)
		case k == "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case k == "horizon":
			cfg.Horizon, err = parseFinite(v)
			horizonSet = true
		default:
			return cfg, fmt.Errorf("%s: unknown field %q", name, k)
		}
		if err != nil {
			return cfg, fmt.Errorf("%s: bad value %q for %s", name, v, k)
		}
	}
	if takesFlows && !(horizonSet && cfg.Horizon > 0) {
		cfg.Horizon = experiments.FlowHorizon(flows, cfg.Nodes)
	}
	return cfg, nil
}

// Fault-injection flags, consumed by the "fault-custom" experiment.
var (
	faultSeed     = flag.Int64("fault-seed", 1, "seed driving generated fault schedules and message-fault rolls")
	faultOutages  = flag.Int("fault-outages", 1, "generated broker-outage windows")
	faultLoss     = flag.Float64("fault-loss", 0, "exchange request-drop probability [0,1)")
	faultDelay    = flag.Float64("fault-delay", 0, "exchange response-delay probability [0,1)")
	faultRestarts = flag.Int("fault-restarts", 0, "generated scheduler restarts (spread over all clients)")
	faultDegrades = flag.Int("fault-degrades", 0, "generated device-degradation windows")
)

// customFaultSpec assembles the Spec the fault flags describe; targets
// default to every coordination client / HDFS device of the 8-node
// microbenchmark cluster.
func customFaultSpec() faults.Spec {
	ids := faults.ClientIDs(8)
	devs := make([]string, 0, len(ids)/2)
	for _, id := range ids {
		if len(id) > 5 && id[len(id)-4:] == "hdfs" {
			devs = append(devs, id)
		}
	}
	return faults.Spec{
		Seed:           *faultSeed,
		Horizon:        50, // faults land inside the measured run
		OutageCount:    *faultOutages,
		DropProb:       *faultLoss,
		DelayProb:      *faultDelay,
		RestartCount:   *faultRestarts,
		RestartTargets: ids,
		DegradeCount:   *faultDegrades,
		DegradeTargets: devs,
	}
}

func main() {
	dataScale := flag.Float64("scale", experiments.DefaultScale, "data scale factor (1 = paper volumes)")
	run := flag.String("run", "", "run a single experiment (e.g. fig06); empty = all")
	list := flag.Bool("list", false, "list experiment names and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max experiments in flight (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(experimentTable))
		for _, e := range experimentTable {
			names = append(names, e.name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var jobs []experiments.Job
	for _, e := range experimentTable {
		if *run != "" && e.name != *run {
			continue
		}
		fn := e.fn
		jobs = append(jobs, experiments.Job{
			Name: e.name,
			Run:  func() (fmt.Stringer, error) { return fn(*dataScale) },
		})
	}
	if len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *run)
		os.Exit(1)
	}

	failed := false
	err := experiments.RunAll(jobs, *parallel, func(r experiments.JobResult) error {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
			failed = true
			return r.Err
		}
		fmt.Fprintf(os.Stderr, "%s: wall %.1fs\n", r.Name, r.Wall.Seconds())
		// Experiments comparing wall-clock (the sharded fabric) surface
		// their nondeterministic numbers here, keeping stdout stable.
		if n, ok := r.Output.(interface{ StderrNote() string }); ok {
			if note := n.StderrNote(); note != "" {
				fmt.Fprintf(os.Stderr, "%s: %s\n", r.Name, note)
			}
		}
		// A self-gating experiment (the shards determinism pin) fails
		// the whole run even though it produced printable output.
		if g, ok := r.Output.(interface{ GateErr() error }); ok {
			if gerr := g.GateErr(); gerr != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, gerr)
				failed = true
			}
		}
		fmt.Printf("=== %s ===\n%s\n", r.Name, r.Output)
		return nil
	})
	if err != nil || failed {
		exit(1, *memprofile, *cpuprofile)
	}
	exit(0, *memprofile, *cpuprofile)
}

// exit writes the requested profiles (deferred StopCPUProfile does not
// run across os.Exit, so flush explicitly) and terminates.
func exit(code int, memprofile, cpuprofile string) {
	if cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	os.Exit(code)
}

// experiment is one named run; fn gets the -scale data factor.
type experiment struct {
	name string
	fn   func(dataScale float64) (fmt.Stringer, error)
}

// experimentTable lists every experiment in the order a full run
// prints them.
var experimentTable = []experiment{
	{"fig02", func(s float64) (fmt.Stringer, error) { return experiments.Fig02(s) }},
	{"fig03a", func(s float64) (fmt.Stringer, error) { return experiments.Fig03(s, false) }},
	{"fig03b", func(s float64) (fmt.Stringer, error) { return experiments.Fig03(s, true) }},
	{"fig06", func(s float64) (fmt.Stringer, error) { return experiments.Fig06(s) }},
	{"fig07", func(s float64) (fmt.Stringer, error) { return experiments.Fig07(s) }},
	{"fig08", func(s float64) (fmt.Stringer, error) { return experiments.Fig08(s) }},
	{"fig09", func(s float64) (fmt.Stringer, error) { return experiments.Fig09(s) }},
	{"fig10", func(s float64) (fmt.Stringer, error) { return experiments.Fig10(s) }},
	{"fig11", func(s float64) (fmt.Stringer, error) { return experiments.Fig11(s) }},
	{"fig12", func(s float64) (fmt.Stringer, error) { return experiments.Fig12(s) }},
	{"fig13", func(s float64) (fmt.Stringer, error) { return experiments.Fig13(s) }},
	{"table2", func(s float64) (fmt.Stringer, error) { return experiments.Table2(s) }},
	{"table3", func(float64) (fmt.Stringer, error) { return experiments.Table3(".") }},
	// Ablations and extensions beyond the paper's figures.
	{"abl-writeahead", func(s float64) (fmt.Stringer, error) { return experiments.AblationWriteAhead(s) }},
	{"abl-lref", func(s float64) (fmt.Stringer, error) { return experiments.AblationLref(s) }},
	{"abl-gain", func(s float64) (fmt.Stringer, error) { return experiments.AblationGain(s) }},
	{"abl-coordperiod", func(float64) (fmt.Stringer, error) { return experiments.AblationCoordPeriod() }},
	{"ext-spectrum", func(s float64) (fmt.Stringer, error) { return experiments.ExtSpectrum(s) }},
	{"ext-netsched", func(s float64) (fmt.Stringer, error) { return experiments.ExtNetworkSched(s) }},
	{"ext-terasort-sweep", func(s float64) (fmt.Stringer, error) { return experiments.ExtTeraSortSweep(s) }},
	{"ext-ssd-promotion", func(float64) (fmt.Stringer, error) { return experiments.ExtSSDPromotion() }},
	{"ext-scalability", func(float64) (fmt.Stringer, error) { return experiments.ExtScalability() }},
	// Parallel simulation: the sharded fabric vs its own serial mode.
	{"shards", func(s float64) (fmt.Stringer, error) { return experiments.Shards(s, *shardsFlag) }},
	// Robustness: coordination-plane fault injection.
	{"fault-matrix", func(float64) (fmt.Stringer, error) { return experiments.FaultMatrix() }},
	{"fault-custom", func(float64) (fmt.Stringer, error) { return experiments.FaultCustom(customFaultSpec()) }},
	// Scale: the hollow-node harness, parameterized by -scale-spec.
	{"scale", func(float64) (fmt.Stringer, error) {
		cfg, err := parseHollowSpec("scale-spec", *scaleSpecFlag,
			experiments.DefaultScaleConfig(), experiments.DefaultScaleFlows)
		if err != nil {
			return nil, err
		}
		return experiments.Hollow(cfg)
	}},
	// Federation: the same harness with partitioned coordination and
	// delta-compressed hierarchical aggregation, parameterized by
	// -federation-spec.
	{"federation", func(float64) (fmt.Stringer, error) {
		cfg, err := parseHollowSpec("federation-spec", *federationSpecFlag,
			experiments.DefaultFederationConfig(), 0)
		if err != nil {
			return nil, err
		}
		if cfg.Partitions < 2 {
			return nil, fmt.Errorf("need >= 2 partitions (1 is the centralized broker)")
		}
		return experiments.Hollow(cfg)
	}},
	// Runtime control plane: live mid-run reweighting through the
	// share tree, parameterized by -reweight.
	{"reweight", func(float64) (fmt.Stringer, error) {
		spec, err := parseReweight(*reweightFlag)
		if err != nil {
			return nil, err
		}
		return experiments.Reweight(spec)
	}},
}
