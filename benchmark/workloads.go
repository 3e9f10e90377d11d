package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"time"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/experiments"
	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
	"ibis/internal/metrics"
	"ibis/internal/scale"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/workloads"
)

// A workload is one set of inputs the benchmark runs. Every repetition
// runs the same unit of work, made from the seed, in a fresh process:
// the benchmark is closed-loop, each simulation starting when the
// previous one ends.
type workload struct {
	name string
	// runs is the number of simulation runs one repetition makes.
	runs int
	// unit runs one repetition. Spans are recorded only when sp is
	// non-nil (the traced run).
	unit func(seed uint64, sp *spans) outcome
	// setup builds, without running it, the simulated system a
	// repetition builds. setupBatch builds are timed together, so that a
	// sample of the small 8-node constructors is long enough to time.
	setup      func(seed uint64, sp *spans) error
	setupBatch int
}

// outcome is what one repetition reports: the host wall time of its
// simulation calls, its failed checks, the deterministic per-layer
// counts, and a digest of its simulated results. Counts and digest must
// repeat exactly across repetitions of the same seed, traced or not.
type outcome struct {
	wallS    float64
	failures []string
	counters map[string]float64
	digest   string
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloadSet lists the workloads in the order "all" runs them. Tests
// replace it with the same workloads at tiny shapes.
var workloadSet = defaultWorkloads()

func defaultWorkloads() []workload {
	return []workload{
		paperFigures(paperFigureSet),
		corunObserved(corunSeeds),
		scaleWorkload("hollow-1000", scale.Config{
			Nodes: 1000, Tenants: 2000, Horizon: 6,
			Policy: cluster.SFQD, Depth: 4,
			AuditSampleEvery: 62,
		}),
		scaleWorkload("federated-400", scale.Config{
			Nodes: 400, Tenants: 1600, Horizon: 8,
			Policy: cluster.SFQD, Depth: 4,
			Coordinate: true, Partitions: 8,
			AuditSampleEvery: 25,
		}),
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadSet {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- paper-figures --------------------------------------------------

// figure is one paper experiment: its printed result and the
// (measured, published) pairs of every row that carries a published
// value, both as fractions.
type figure struct {
	name string
	run  func(scale float64) (fmt.Stringer, [][2]float64, error)
}

// paperFigureSet is the reproduction users run, minus the Fig11/Fig12
// tuning sweeps: those re-run the same MapReduce co-runs as Fig06 many
// times over and would take 12 of every 16 seconds, leaving too few
// repetitions in a run for a steady median.
var paperFigureSet = []figure{
	{"fig02", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Fig02(s)
		return r, nil, err
	}},
	{"fig03a", func(s float64) (fmt.Stringer, [][2]float64, error) { return fig03(s, false) }},
	{"fig03b", func(s float64) (fmt.Stringer, [][2]float64, error) { return fig03(s, true) }},
	{"fig06", func(s float64) (fmt.Stringer, [][2]float64, error) { return isolation(experiments.Fig06(s)) }},
	{"fig07", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Fig07(s)
		return r, nil, err
	}},
	{"fig08", func(s float64) (fmt.Stringer, [][2]float64, error) { return isolation(experiments.Fig08(s)) }},
	{"fig09", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Fig09(s)
		return r, nil, err
	}},
	{"fig10", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Fig10(s)
		if err != nil {
			return nil, nil, err
		}
		var pairs [][2]float64
		for _, q := range r.Queries {
			for _, row := range q.Rows {
				pairs = append(pairs, [2]float64{row.QueryRel, row.PaperQueryRel})
			}
		}
		return r, pairs, nil
	}},
	{"fig13", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Fig13(s)
		if err != nil {
			return nil, nil, err
		}
		var pairs [][2]float64
		for _, row := range r.Rows {
			pairs = append(pairs, [2]float64{row.Overhead, row.PaperOverhead})
		}
		return r, pairs, nil
	}},
	{"table2", func(s float64) (fmt.Stringer, [][2]float64, error) {
		r, err := experiments.Table2(s)
		return r, nil, err
	}},
}

func fig03(s float64, ssd bool) (fmt.Stringer, [][2]float64, error) {
	r, err := experiments.Fig03(s, ssd)
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2]float64
	for _, row := range r.Rows {
		pairs = append(pairs, [2]float64{row.Slowdown, row.PaperSlowdown})
	}
	return r, pairs, nil
}

func isolation(r *experiments.Fig06Result, err error) (fmt.Stringer, [][2]float64, error) {
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2]float64
	for _, row := range r.Rows {
		pairs = append(pairs,
			[2]float64{row.Slowdown, row.PaperSlowdown},
			[2]float64{row.ThroughputLoss, row.PaperTputLoss})
	}
	return r, pairs, nil
}

// paperFigures runs the figures on the single engine at the default
// data scale with their own pinned seeds: the seed does not apply.
func paperFigures(figs []figure) workload {
	return workload{
		name: "paper-figures",
		runs: len(figs),
		unit: func(_ uint64, sp *spans) outcome {
			o := outcome{counters: map[string]float64{}}
			h := sha256.New()
			errSum, n := 0.0, 0
			for _, f := range figs {
				end := sp.begin("experiments." + f.name)
				t0 := time.Now()
				out, pairs, err := f.run(experiments.DefaultScale)
				o.wallS += time.Since(t0).Seconds()
				end()
				if err != nil {
					o.fail("%s: %v", f.name, err)
					continue
				}
				io.WriteString(h, out.String())
				for _, p := range pairs {
					errSum += math.Abs(p[0] - p[1])
					n++
				}
			}
			if n > 0 {
				o.counters["experiments.paper_err_pp"] = 100 * errSum / float64(n)
			}
			o.digest = fmt.Sprintf("%x", h.Sum(nil))
			return o
		},
		setup: func(_ uint64, sp *spans) error {
			return buildMapReduce(sp, experiments.DefaultScale, false)
		},
		setupBatch: 100,
	}
}

// buildMapReduce builds the 8-node testbed the MapReduce workloads run
// on — cluster, namenode and runtime — under coordinated SFQ(D2),
// either on the single engine or on the sharded fabric at one worker.
func buildMapReduce(sp *spans, dataScale float64, sharded bool) error {
	cfg := cluster.Config{
		HDFSDisk:   storage.HDDSpec(),
		LocalDisk:  storage.HDDSpec(),
		Policy:     cluster.SFQD2,
		Coordinate: true,
	}
	var cl *cluster.Cluster
	var err error
	if sharded {
		end := sp.begin("cluster.NewSharded")
		cl, err = cluster.NewSharded(cfg, 0, sim.FabricOptions{Workers: 1})
		end()
	} else {
		end := sp.begin("cluster.New")
		cl, err = cluster.New(sim.NewEngine(), cfg)
		end()
	}
	if err != nil {
		return err
	}
	end := sp.begin("dfs.NewNamenode")
	nn := dfs.NewNamenode(dfs.Config{
		Nodes:      len(cl.Nodes),
		BlockSize:  dfs.DefaultBlockSize * dataScale,
		Partitions: len(cl.MetaShards()),
	})
	end()
	end = sp.begin("mapreduce.NewRuntime")
	mapreduce.NewRuntime(cl.Eng, cl, nn, mapreduce.Config{
		ChunkBytes:         2e6,
		ShuffleBufferBytes: 2e9 * dataScale,
	})
	end()
	return nil
}

// ---- corun-observed -------------------------------------------------

// corunSeeds is the number of DFS-placement seeds one repetition runs.
const corunSeeds = 2

// corunObserved is the Figure 3-class co-run — WordCount against a
// 200 GB TeraSort contender under coordinated SFQ(D2) — on the sharded
// fabric at one worker with the trace ring and the deferred audit on,
// for seeds seed .. seed+seeds-1.
func corunObserved(seeds int) workload {
	s := experiments.DefaultScale
	return workload{
		name: "corun-observed",
		runs: seeds,
		unit: func(seed uint64, sp *spans) outcome {
			o := outcome{counters: map[string]float64{}}
			c := o.counters
			h := sha256.New()
			waits, services := metrics.NewDistribution(), metrics.NewDistribution()
			for i := 0; i < seeds; i++ {
				dfsSeed := int64(seed) + int64(i)
				end := sp.begin(fmt.Sprintf("experiments.Run.seed-%d", dfsSeed))
				t0 := time.Now()
				res, err := experiments.Run(experiments.Options{
					Scale:         s,
					Policy:        cluster.SFQD2,
					Coordinate:    true,
					Seed:          dfsSeed,
					TraceCapacity: 1 << 15,
					Audit:         true,
					Shards:        1,
				}, []experiments.Entry{
					pinned(workloads.WordCountSpec(50e9*s, 6)),
					pinned(workloads.TeraSortSpec(200e9*s, 24)),
				})
				o.wallS += time.Since(t0).Seconds()
				end()
				if err != nil {
					o.fail("seed %d: %v", dfsSeed, err)
					continue
				}
				if v := res.Audit.ViolationCount(); v > 0 {
					o.fail("seed %d: %d audit violations: %v", dfsSeed, v, res.Audit.Err())
				}
				for _, job := range []string{"wordcount", "terasort"} {
					if len(res.Jobs[job]) != 1 {
						o.fail("seed %d: %d %s results, want 1", dfsSeed, len(res.Jobs[job]), job)
					}
				}
				fmt.Fprintf(h, "%d %v %v\n", res.EventsFired, res.Duration, res.Jobs)

				c["sim.events"] += float64(res.EventsFired)
				if fs := res.FabricStats; fs != nil {
					c["sim.windows"] += float64(fs.Windows)
					c["sim.parallel_windows"] += float64(fs.ParallelWindows)
					c["sim.cross_shard_msgs"] += float64(fs.Messages)
				}
				c["sim.coord_event_frac"] += res.ShardLoad.CoordEventFraction() / float64(seeds)
				c["mapreduce.makespan_s"] += res.Duration / float64(seeds)
				c["broker.exchanges"] += float64(res.BrokerExchanges)
				for app := range res.PerAppBytes {
					for class := iosched.Class(0); int(class) < iosched.NumClasses; class++ {
						c["iosched.requests"] += float64(res.Latency(app, class).N())
					}
				}
				c["trace.records"] += float64(res.Trace.Len())
				for _, r := range res.Trace.Records() {
					c["iosched.peak_in_flight"] = math.Max(c["iosched.peak_in_flight"], float64(r.InFlight))
				}
				for _, r := range res.Trace.Requests() {
					if q := r.QueueDelay(); q >= 0 {
						waits.Add(q)
					}
					if sv := r.ServiceTime(); sv >= 0 {
						services.Add(sv)
					}
				}
				for _, n := range res.Audit.Checks() {
					c["audit.checks"] += float64(n)
				}
				c["audit.violations"] += float64(res.Audit.ViolationCount())
			}
			c["iosched.queue_wait_p50_s"] = waits.Percentile(50)
			c["iosched.queue_wait_p99_s"] = waits.Percentile(99)
			c["storage.service_p50_s"] = services.Percentile(50)
			c["storage.service_p99_s"] = services.Percentile(99)
			o.digest = fmt.Sprintf("%x", h.Sum(nil))
			return o
		},
		setup: func(_ uint64, sp *spans) error {
			return buildMapReduce(sp, s, true)
		},
		setupBatch: 100,
	}
}

// pinned gives a job half the testbed's cores and memory in its own
// Fair Scheduler pool, as every Section 7 co-run does.
func pinned(spec mapreduce.JobSpec) experiments.Entry {
	spec.CPUQuota = 48
	spec.Pool = spec.Name
	return experiments.Entry{Spec: spec, PoolCores: 48, PoolMemGB: 96}
}

// ---- hollow-1000 and federated-400 ----------------------------------

// scaleWorkload is one run of the hollow-node scale harness: an
// open-loop arrival process at 1.4× capacity in simulated time, with
// the auditor sampling every AuditSampleEvery-th node.
func scaleWorkload(name string, cfg scale.Config) workload {
	cfg.Replicas = 3
	cfg.LoadFactor = 1.4
	cfg.NodeBandwidth = 100e6
	cfg.MeanRequestBytes = 1e6
	cfg.CoordinationPeriod = 1
	cfg.Audit = true
	cfg.Workers = 1
	return workload{
		name: name,
		runs: 1,
		unit: func(seed uint64, sp *spans) outcome {
			var o outcome
			c := cfg
			c.Seed = seed
			end := sp.begin("scale.Run")
			t0 := time.Now()
			rep, err := scale.Run(c)
			o.wallS = time.Since(t0).Seconds()
			end()
			if err != nil {
				o.fail("%v", err)
				return o
			}
			st := rep.Stats
			if rep.AuditErr != nil || rep.Violations > 0 {
				o.fail("%d audit violations: %v", rep.Violations, rep.AuditErr)
			}
			if st.Submitted != st.Completed {
				o.fail("%d requests submitted, %d completed", st.Submitted, st.Completed)
			}
			// The scale harness's own gate: the ratio must be measured
			// (some pair of backlogged tenants qualified) and within the
			// SFQ(D) granularity bound.
			if st.FairnessMaxRatio <= 1 || st.FairnessMaxRatio > 2 {
				o.fail("fairness max ratio %.4f outside (1, 2]", st.FairnessMaxRatio)
			}
			if cfg.Partitions > 0 && st.Partitions != cfg.Partitions {
				o.fail("ran %d partitions, want %d", st.Partitions, cfg.Partitions)
			}
			checks := 0.0
			for _, n := range rep.AuditChecks {
				checks += float64(n)
			}
			o.counters = map[string]float64{
				"sim.events":             float64(st.Events),
				"sim.coord_event_frac":   st.ShardLoad.CoordEventFraction(),
				"iosched.requests":       float64(st.Submitted),
				"iosched.peak_in_flight": float64(st.PeakInFlight),
				"iosched.fairness_ratio": st.FairnessMaxRatio,
				"broker.fed_syncs":       float64(st.FedSyncs),
				"broker.fed_snapshots":   float64(st.FedSnapshots),
				"broker.fed_bytes":       float64(st.FedUpBytes + st.FedDownBytes),
				"broker.compression_x":   st.FedCompression(),
				"audit.checks":           checks,
				"audit.violations":       float64(rep.Violations),
			}
			o.digest = fmt.Sprintf("%016x", st.Digest)
			return o
		},
		setup: func(seed uint64, sp *spans) error {
			end := sp.begin("workloads.Generate")
			pop := workloads.Generate(workloads.PopulationConfig{
				Tenants:    cfg.Tenants,
				Seed:       seed,
				Nodes:      cfg.Nodes,
				Replicas:   cfg.Replicas,
				LoadFactor: cfg.LoadFactor,
			})
			end()
			end = sp.begin("workloads.Population.Bind")
			tree := shares.NewTree()
			err := pop.Bind(tree)
			end()
			if err != nil {
				return err
			}
			end = sp.begin("cluster.NewHollowSharded")
			_, err = cluster.NewHollowSharded(cluster.Config{
				Nodes:              cfg.Nodes,
				HDFSDisk:           scale.HollowSpec(cfg.NodeBandwidth),
				Policy:             cfg.Policy,
				SFQDepth:           cfg.Depth,
				Coordinate:         cfg.Coordinate,
				CoordinationPeriod: cfg.CoordinationPeriod,
				Federation: cluster.Federation{
					Partitions:        cfg.Partitions,
					AggregationPeriod: cfg.CoordinationPeriod,
				},
				Shares: tree,
			}, 0, sim.FabricOptions{Workers: 1})
			end()
			return err
		},
		setupBatch: 4,
	}
}
