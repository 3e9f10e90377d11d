// Package experiments reproduces every table and figure of the IBIS
// paper's evaluation (Section 7) on the simulated cluster: one driver
// per experiment, each returning a typed result with the paper's
// published numbers alongside the measured ones.
//
// All experiments run at a configurable data scale (default 1/8 of the
// paper's volumes, with the DFS block size scaled identically so task
// counts and wave structure are preserved). Shape comparisons — who
// wins, by what factor, where crossovers fall — are scale-invariant.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// DefaultScale is the default data down-scaling factor.
const DefaultScale = 0.125

// Options configure one scenario run.
type Options struct {
	// Scale multiplies all data volumes and the DFS block size.
	Scale float64
	// SSD selects the flash storage setup instead of HDDs.
	SSD bool
	// Policy is the I/O scheduling policy for every datanode.
	Policy cluster.Policy
	// SFQDepth is the static depth for the SFQD / CGWeight policies.
	SFQDepth int
	// Gain overrides the SFQ(D2) controller gain (0 = default).
	Gain float64
	// Coordinate enables the Scheduling Broker (total-service sharing).
	Coordinate bool
	// ThrottleLimits configures CGThrottle (per-app bytes/second).
	ThrottleLimits map[iosched.AppID]float64
	// Seed drives DFS placement and any workload randomness.
	Seed int64
	// CaptureThroughput enables cluster-wide read/write time series.
	CaptureThroughput bool
	// CaptureDepthTrace records the SFQ(D2) controller trace of node
	// 0's HDFS scheduler (Figure 7).
	CaptureDepthTrace bool
	// WriteAhead overrides the write-behind window (0 = default).
	WriteAhead int
	// CoresPerNode / MemGBPerNode override the cluster shape (0 =
	// paper defaults); the Facebook standalone runs pin half the
	// testbed's CPU and memory this way.
	CoresPerNode int
	MemGBPerNode float64
	// LrefScale multiplies the profiled reference latencies for SFQD2
	// (the Section 9 isolation-vs-utilization knob; 0 = 1.0).
	LrefScale float64
	// ScheduleNetwork interposes weighted fair scheduling on the NICs
	// (the OpenFlow-style extension).
	ScheduleNetwork bool
	// ReservationRates / ReservationDefault configure the Reserve
	// policy (cost units per second per device).
	ReservationRates   map[iosched.AppID]float64
	ReservationDefault float64
	// TraceCapacity, when positive, enables request-lifecycle tracing
	// into a ring of that many records (Result.Trace).
	TraceCapacity int
	// Audit enables online invariant auditing (Result.Audit).
	Audit bool
	// Shards, when positive, runs the scenario on the sharded parallel
	// fabric (one engine per datanode plus a coordinator) with that
	// many worker goroutines. The worker count changes wall-clock time
	// only: results, traces and audit output are identical for every
	// positive value. Shards=0 is the classic single-engine path.
	Shards int
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = DefaultScale
	}
	if o.SFQDepth <= 0 {
		o.SFQDepth = 4
	}
}

// Entry is one job to submit. If the spec names a Fair Scheduler pool,
// PoolCores/PoolMemGB define that pool's aggregate caps (the paper pins
// each application to half the testbed's CPU *and* memory).
type Entry struct {
	Spec      mapreduce.JobSpec
	Delay     float64
	PoolCores int
	PoolMemGB float64
}

// Result captures everything an experiment needs from one run.
type Result struct {
	// Jobs maps spec name to the completed job results (Facebook runs
	// have many jobs; classic scenarios have one per name).
	Jobs map[string][]mapreduce.Result
	// Duration is the virtual time when the last job finished.
	Duration float64
	// ReadSeries / WriteSeries are cluster-wide storage throughput
	// series (bytes per 1 s bin), if captured.
	ReadSeries  *metrics.TimeSeries
	WriteSeries *metrics.TimeSeries
	// PerAppReadSeries/PerAppWriteSeries split by application name
	// prefix, if captured.
	PerAppBytes map[iosched.AppID]float64
	// DepthTrace is the SFQ(D2) controller trace, if captured.
	DepthTrace []iosched.TracePoint
	// TotalBytes is all data serviced by all devices.
	TotalBytes float64
	// Broker stats proxy (exchanges), zero without coordination.
	BrokerExchanges uint64
	// EventsFired is the simulation event count (overhead proxy).
	EventsFired uint64
	// JobHandles exposes the completed jobs for deeper analysis
	// (per-task timings etc.).
	JobHandles []*mapreduce.Job
	// Trace is the request-lifecycle tracer, if enabled: one ring per
	// node shard, read as their deterministic merge.
	Trace *trace.Tracer
	// Audit is the invariant auditor, finished, if enabled.
	Audit *audit.Auditor
	// FabricStats reports the parallel fabric's window and message
	// counters (nil in single-engine mode).
	FabricStats *sim.FabricStats
	// ShardLoad is the per-shard occupancy of the run (empty in
	// single-engine mode): how much of the event work the coordinator
	// kept versus what the decomposition moved to node and metadata
	// shards.
	ShardLoad metrics.ShardStats

	latencies map[latKey]*metrics.Distribution
}

type latKey struct {
	app   iosched.AppID
	class iosched.Class
}

// Latency returns the scheduler-observed total latency distribution
// for one app and I/O class (empty distribution if unseen).
func (r *Result) Latency(app iosched.AppID, class iosched.Class) *metrics.Distribution {
	if d, ok := r.latencies[latKey{app, class}]; ok {
		return d
	}
	return metrics.NewDistribution()
}

// JobResult returns the single result for a spec name, panicking if the
// name is absent or ambiguous (experiment-internal convenience).
func (r *Result) JobResult(name string) mapreduce.Result {
	rs := r.Jobs[name]
	if len(rs) != 1 {
		panic(fmt.Sprintf("experiments: %d results for %q", len(rs), name))
	}
	return rs[0]
}

// MeanThroughput returns total bytes / duration (bytes/second).
func (r *Result) MeanThroughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.TotalBytes / r.Duration
}

// Run assembles a cluster + runtime, submits entries, runs to
// completion, and collects metrics.
func Run(opts Options, entries []Entry) (*Result, error) {
	return RunWithSetup(opts, entries, nil)
}

// RunWithSetup is Run with a hook that can attach additional workloads
// (e.g. a Hive query's stage chain) to the runtime before execution.
func RunWithSetup(opts Options, entries []Entry, setup func(*mapreduce.Runtime) error) (*Result, error) {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Gain", opts.Gain}, {"LrefScale", opts.LrefScale}, {"Scale", opts.Scale}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("experiments: option %s must be finite, got %g", f.name, f.v)
		}
	}
	opts.defaults()
	disk := storage.HDDSpec()
	if opts.SSD {
		disk = storage.SSDSpec()
	}
	ctrl := iosched.ControllerConfig{Gain: opts.Gain}
	if opts.LrefScale > 0 && opts.Policy == cluster.SFQD2 {
		prof, err := cluster.ProfileFor(disk)
		if err != nil {
			return nil, err
		}
		ctrl.ReadLref = prof.ReadLref * opts.LrefScale
		ctrl.WriteLref = prof.WriteLref * opts.LrefScale
	}
	var depthTrace []iosched.TracePoint
	cfg := cluster.Config{
		CoresPerNode:       opts.CoresPerNode,
		MemGBPerNode:       opts.MemGBPerNode,
		HDFSDisk:           disk,
		LocalDisk:          disk,
		Policy:             opts.Policy,
		SFQDepth:           opts.SFQDepth,
		Controller:         ctrl,
		ThrottleLimits:     opts.ThrottleLimits,
		ReservationRates:   opts.ReservationRates,
		ReservationDefault: opts.ReservationDefault,
		ScheduleNetwork:    opts.ScheduleNetwork,
		Coordinate:         opts.Coordinate,
	}
	var cl *cluster.Cluster
	var err error
	if opts.Shards > 0 {
		cl, err = cluster.NewSharded(cfg, cluster.DefaultLookahead, sim.FabricOptions{Workers: opts.Shards})
	} else {
		cl, err = cluster.New(sim.NewEngine(), cfg)
	}
	if err != nil {
		return nil, err
	}
	eng := cl.Eng
	if opts.CaptureDepthTrace && opts.Policy == cluster.SFQD2 {
		if sfq, ok := cl.Nodes[0].HDFSSched.(*iosched.SFQ); ok {
			sfq.Controller().SetTrace(func(p iosched.TracePoint) {
				depthTrace = append(depthTrace, p)
			})
		}
	}

	nn := dfs.NewNamenode(dfs.Config{
		Nodes:     len(cl.Nodes),
		BlockSize: dfs.DefaultBlockSize * opts.Scale,
		Seed:      opts.Seed,
		// Sharded: partition block metadata across the cluster's
		// metadata shards so input placement never serializes on the
		// coordinator (see dfs/partitioned.go).
		Partitions: len(cl.MetaShards()),
	})
	// Chunk size stays at the full-scale 2 MB regardless of data scale:
	// I/O granularity is a property of the client, not the data volume,
	// and shrinking it with the data would inflate per-op overheads
	// artificially. The shuffle buffer scales with the data so
	// reduce-side spill behavior matches the full-scale runs.
	rt := mapreduce.NewRuntime(eng, cl, nn, mapreduce.Config{
		ChunkBytes:         2e6,
		ShuffleBufferBytes: 2e9 * opts.Scale,
		WriteAheadChunks:   opts.WriteAhead,
	})

	res := &Result{
		Jobs:        make(map[string][]mapreduce.Result),
		PerAppBytes: make(map[iosched.AppID]float64),
		latencies:   make(map[latKey]*metrics.Distribution),
	}
	if opts.TraceCapacity > 0 {
		res.Trace = trace.New(opts.TraceCapacity, cl.Shares())
		res.Trace.Attach(cl)
	}
	if opts.Audit {
		res.Audit = audit.New(audit.Options{}, cl.Shares())
		res.Audit.Attach(cl, 1)
	}
	// I/O completions on the storage schedulers fire on the owning
	// node's shard and accumulate into that shard's cell (single-owner
	// by construction), merged in shard order after the run: no shared
	// writes inside parallel windows, and the same totals for every
	// worker count.
	cells := make([]ioCell, cl.Shards())
	cl.Instrument(func(shard, _ int, dev string, _ iosched.Scheduler) iosched.Probe {
		if dev == "nic" {
			return nil
		}
		c := &cells[shard]
		if !c.live {
			*c = newIOCell(opts.CaptureThroughput)
		}
		return c
	})

	for _, e := range entries {
		if e.Spec.Pool != "" && (e.PoolCores > 0 || e.PoolMemGB > 0) {
			rt.DefinePool(e.Spec.Pool, e.PoolCores, e.PoolMemGB)
		}
		if _, err := rt.Submit(e.Spec, e.Delay); err != nil {
			return nil, err
		}
	}
	if setup != nil {
		if err := setup(rt); err != nil {
			return nil, err
		}
	}

	cl.RunUntil(math.Inf(1))
	if res.Audit != nil {
		res.Audit.Finish()
	}
	if opts.CaptureThroughput {
		res.ReadSeries = metrics.NewTimeSeries(1)
		res.WriteSeries = metrics.NewTimeSeries(1)
	}
	for i := range cells {
		cells[i].mergeInto(res, cl.Shares())
	}

	// Collect every job the runtime saw — including ones attached by
	// the setup hook (e.g. chained Hive stages).
	for _, j := range rt.Jobs() {
		if !j.Done() {
			return nil, fmt.Errorf("experiments: job %s (%s) did not finish", j.App, j.Spec.Name)
		}
		jr := j.Result()
		res.Jobs[j.Spec.Name] = append(res.Jobs[j.Spec.Name], jr)
		if jr.EndTime > res.Duration {
			res.Duration = jr.EndTime
		}
	}
	res.BrokerExchanges = cl.BrokerStats().Exchanges
	res.JobHandles = rt.Jobs()
	res.DepthTrace = depthTrace
	res.EventsFired = cl.Fired()
	res.FabricStats = cl.FabricStats()
	res.ShardLoad = cl.ShardLoad()
	return res, nil
}

// ioCell accumulates one shard's I/O completions; it is the probe on
// every storage scheduler of that shard. Apps are booked by their
// share-tree index, so a completion hashes no name: a scheduler admits
// only requests that carry one.
type ioCell struct {
	live        bool // the shard has a storage scheduler
	totalBytes  float64
	apps        []appIO             // by iosched.AppIdx
	read, write *metrics.TimeSeries // nil unless throughput is captured
}

// appIO is one app's completions in a cell.
type appIO struct {
	seen  bool // the app has completed a request in the cell
	bytes float64
	lats  [iosched.NumClasses]*metrics.Distribution
}

func newIOCell(series bool) ioCell {
	c := ioCell{live: true}
	if series {
		c.read, c.write = metrics.NewTimeSeries(1), metrics.NewTimeSeries(1)
	}
	return c
}

// Observe implements iosched.Probe, booking each completion.
func (c *ioCell) Observe(req *iosched.Request, st iosched.ProbeState) {
	if st.Event != iosched.ProbeComplete {
		return
	}
	i := int(req.AppIdx)
	if i >= len(c.apps) {
		c.apps = append(c.apps, make([]appIO, i+1-len(c.apps))...)
	}
	a := &c.apps[i]
	a.seen = true
	c.totalBytes += req.Size
	a.bytes += req.Size
	d := a.lats[req.Class]
	if d == nil {
		d = metrics.NewDistribution()
		a.lats[req.Class] = d
	}
	d.Add(st.Latency)
	if c.read != nil {
		if req.Class.OpKind() == storage.Read {
			c.read.Add(st.Time, req.Size)
		} else {
			c.write.Add(st.Time, req.Size)
		}
	}
}

// mergeInto folds the cell into res, its apps named through names (the
// tree that numbered them), adopting its latency distributions where
// res has none yet. Cells merge in shard order and each in app-name,
// then class order, so the result does not depend on how apps were
// numbered or on worker count.
func (c *ioCell) mergeInto(res *Result, names *shares.Tree) {
	if !c.live {
		return // a shard with no datanode
	}
	res.TotalBytes += c.totalBytes
	type namedIO struct {
		name iosched.AppID
		*appIO
	}
	apps := make([]namedIO, 0, len(c.apps))
	for i := range c.apps {
		if c.apps[i].seen {
			apps = append(apps, namedIO{names.AppName(iosched.AppIdx(i)), &c.apps[i]})
		}
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].name < apps[j].name })
	for _, a := range apps {
		res.PerAppBytes[a.name] += a.bytes
	}
	for _, a := range apps {
		for class, d := range a.lats {
			if d == nil {
				continue
			}
			k := latKey{a.name, iosched.Class(class)}
			if have := res.latencies[k]; have != nil {
				have.Merge(d)
			} else {
				res.latencies[k] = d
			}
		}
	}
	if c.read != nil {
		res.ReadSeries.Merge(c.read)
		res.WriteSeries.Merge(c.write)
	}
}
