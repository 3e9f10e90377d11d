// Package scale is the kubemark/clusterloader2-style scale suite: it
// runs the existing simulator with hollow datanodes (one device + one
// interposed scheduler per node, slab-pooled requests) and generated
// multi-tenant populations (thousands of tenants × apps with weighted
// share trees and open-loop arrival processes), and measures the
// envelope real experiments cannot reach — millions of requests in
// flight across a thousand nodes — while keeping the two properties
// that make it a test harness rather than a demo:
//
//   - deterministic under sim.Fabric sharding: the completion-stream
//     digest is bit-identical for every worker count;
//   - audit-clean: proportional-share invariants hold at full scale.
//
// Every run reports fairness ratios alongside bytes-per-flow,
// bytes-per-node, events/sec and peak heap; TestScaleGate holds the
// memory numbers to their budgets on every full test run.
package scale

import (
	"fmt"
	"math"
	"time"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/workloads"
)

// Config describes one scale run. Zero fields take smoke-sized
// defaults; the CI gate overrides them to the 1000-node / 10k-tenant
// shape.
type Config struct {
	// Nodes is the hollow datanode count.
	Nodes int
	// Tenants × AppsPerTenant apps are generated; each app runs on
	// Replicas nodes.
	Tenants       int
	AppsPerTenant int
	Replicas      int
	// Seed drives the population generator and every request-size draw.
	Seed uint64
	// Horizon is the submission window in virtual seconds (0 = 10);
	// after it the pumps stop and the run drains. Run rejects a NaN,
	// infinite or negative horizon.
	Horizon float64
	// LoadFactor is the offered load relative to cluster capacity;
	// > 1 keeps every app continuously backlogged.
	LoadFactor float64
	// MeanRequestBytes sizes requests (log-range [0.5, 2) × mean).
	MeanRequestBytes float64
	// NodeBandwidth is the hollow device's flat service rate in
	// bytes/second.
	NodeBandwidth float64

	// Policy and Depth wire the per-node scheduler (default SFQ(D), 4).
	Policy cluster.Policy
	Depth  int
	// Coordinate enables the Scheduling Broker across the fabric;
	// CoordinationPeriod is its exchange period.
	Coordinate         bool
	CoordinationPeriod float64
	// Partitions > 1 federates the broker plane: that many partition
	// brokers on their own shards under a root aggregator, syncing
	// delta-compressed quanta every coordination period. Requires
	// Coordinate.
	Partitions int
	// Faults, when non-nil, injects the fault schedule into the
	// coordination plane (the chaos configurations).
	Faults *faults.Injector

	// Audit attaches the invariant auditor to every AuditSampleEvery-th
	// node (1 = all nodes). Each sampled node's shard log keeps one
	// fixed-size, pointer-free record per lifecycle event until the
	// next fabric barrier judges it; sampling bounds the judging work at
	// the 1000-node shape.
	Audit            bool
	AuditSampleEvery int

	// Workers is the fabric's physical parallelism.
	Workers int
}

// tickPeriod is the pump period in virtual seconds: the batching
// granularity of the open-loop arrival process.
const tickPeriod = 0.1

// nodeLookahead is the minimum virtual latency of messages leaving a
// node shard (the heartbeat-piggybacked control uplink):
// min(tickPeriod, CoordinationPeriod/8), but never below the cluster's
// base lookahead. A bound looser than the base widens the fabric's
// conservative windows — fewer barriers, more parallel headroom —
// without touching data-plane timing, which is node-local.
func (c *Config) nodeLookahead() float64 {
	return max(cluster.DefaultLookahead, min(tickPeriod, c.CoordinationPeriod/8))
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Tenants <= 0 {
		c.Tenants = 16
	}
	if c.AppsPerTenant <= 0 {
		c.AppsPerTenant = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > c.Nodes {
		c.Replicas = c.Nodes
	}
	if c.Horizon <= 0 {
		c.Horizon = 10
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.4
	}
	if c.MeanRequestBytes <= 0 {
		c.MeanRequestBytes = 1e6
	}
	if c.NodeBandwidth <= 0 {
		c.NodeBandwidth = 100e6
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	// Coordination requires SFQ schedulers: Native (the zero value)
	// builds FIFOs, which cannot attach broker clients, silently turning
	// a coordinated run into an uncoordinated one.
	if c.Coordinate && c.Policy == cluster.Native {
		c.Policy = cluster.SFQD
	}
	if c.CoordinationPeriod <= 0 {
		c.CoordinationPeriod = 1
	}
	if c.AuditSampleEvery <= 0 {
		c.AuditSampleEvery = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// HollowSpec is the flat device model hollow nodes serve from: constant
// bandwidth, no concurrency curve, no per-op overhead — the simplest
// backend that still exercises full tag arithmetic and dispatch.
func HollowSpec(bw float64) storage.Spec {
	return storage.Spec{
		Name:       "hollow",
		ReadBW:     bw,
		WriteBW:    bw,
		Curve:      []float64{1},
		CurveDecay: 1,
		MinCurve:   1,
	}
}

// Report is the outcome of one scale run.
type Report struct {
	Stats      metrics.ScaleStats
	Population *workloads.Population
	// AuditErr is non-nil if any invariant was violated (nil when the
	// audit is off).
	AuditErr   error
	Violations int
	// AuditChecks counts evaluated invariant checks by name (nil when
	// the audit is off) — gates assert the intended regime actually ran.
	AuditChecks map[string]uint64
}

// resident is one app's open-loop arrival state on one node.
type resident struct {
	id     iosched.AppID
	idx    iosched.AppIdx // id's index in the share tree
	weight float64        // effective weight, for fairness normalization
	rate   float64        // requests/second on this node
	credit float64
	// halfCost and fullCost snapshot the node's service of the app at
	// the horizon's midpoint and at the horizon.
	halfCost, fullCost float64
}

// nodeCell is the per-node, single-shard-owner state: the arrival
// credits and the completion counters. Only the node's own engine
// callbacks touch it during the run; the coordinator reads it after the
// fabric drains.
type nodeCell struct {
	node      *cluster.Node
	names     *shares.Tree // numbers the residents' apps
	rng       uint64
	residents []resident

	submitted uint64
	completed uint64
	bytes     float64
	digest    uint64
	series    []int // outstanding requests at each pump tick
	err       error // first rejected submit; it stops the node's pump
}

// Complete implements iosched.Done for every request the cell's pump
// issues: it books the completion into the counters and digest.
func (c *nodeCell) Complete(req *iosched.Request, lat float64) {
	c.completed++
	c.bytes += req.Size
	d := fnvString(c.digest, string(c.names.AppName(req.AppIdx)))
	d = fnvUint(d, math.Float64bits(req.Size))
	d = fnvUint(d, math.Float64bits(lat))
	d = fnvUint(d, math.Float64bits(c.node.Shard().Engine().Now()))
	c.digest = d
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(x uint64) float64 {
	return (float64(x>>11) + 0.5) / (1 << 53)
}

// Run executes one scale run and reports its envelope. The virtual
// timeline, completion stream, and digest are pure functions of cfg
// (Workers changes wall-clock only); events/sec, wall seconds and heap
// numbers are host-dependent.
func Run(cfg Config) (*Report, error) {
	if h := cfg.Horizon; math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		return nil, fmt.Errorf("scale: horizon must be finite and non-negative, got %g", h)
	}
	// Zero and negative values take defaults below, but a NaN or
	// infinite one would run zero requests or pump forever.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MeanRequestBytes", cfg.MeanRequestBytes},
		{"NodeBandwidth", cfg.NodeBandwidth},
		{"LoadFactor", cfg.LoadFactor},
		{"CoordinationPeriod", cfg.CoordinationPeriod},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("scale: %s must be finite, got %g", f.name, f.v)
		}
	}
	cfg.defaults()
	pop := workloads.Generate(workloads.PopulationConfig{
		Tenants:       cfg.Tenants,
		AppsPerTenant: cfg.AppsPerTenant,
		Seed:          cfg.Seed,
		Nodes:         cfg.Nodes,
		Replicas:      cfg.Replicas,
		LoadFactor:    cfg.LoadFactor,
	})
	tree := shares.NewTree()
	if err := pop.Bind(tree); err != nil {
		return nil, fmt.Errorf("scale: binding population: %w", err)
	}
	fed := cluster.Federation{
		Partitions:        cfg.Partitions,
		AggregationPeriod: cfg.CoordinationPeriod,
	}
	cl, err := cluster.NewHollowSharded(cluster.Config{
		Nodes:              cfg.Nodes,
		HDFSDisk:           HollowSpec(cfg.NodeBandwidth),
		Policy:             cfg.Policy,
		SFQDepth:           cfg.Depth,
		Coordinate:         cfg.Coordinate,
		CoordinationPeriod: cfg.CoordinationPeriod,
		Federation:         fed,
		Faults:             cfg.Faults,
		Shares:             tree,
	}, 0, sim.FabricOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	cl.SetNodeUplinkLatency(cfg.nodeLookahead())

	// Assign residents: app → its placement nodes, rate split evenly.
	nodeServiceRate := cfg.NodeBandwidth / cfg.MeanRequestBytes
	cells := make([]nodeCell, cfg.Nodes)
	for i := range cells {
		cells[i] = nodeCell{
			node:   cl.Nodes[i],
			names:  tree,
			rng:    splitmix64(cfg.Seed ^ (uint64(i) * 0x9e37)),
			digest: fnvOffset,
		}
	}
	for _, app := range pop.Apps() {
		perNode := pop.ArrivalRate(app, nodeServiceRate) / float64(len(app.Nodes))
		idx, w, _ := tree.Resolve(app.ID, iosched.NoApp, iosched.PersistentRead)
		for _, n := range app.Nodes {
			cells[n].residents = append(cells[n].residents, resident{
				id: app.ID, idx: idx, weight: w, rate: perNode,
			})
		}
	}

	// Audit wiring (sampled nodes only; the node shards' logs are
	// judged at every fabric barrier).
	var auditor *audit.Auditor
	if cfg.Audit {
		auditor = audit.New(audit.Options{
			CoordinationPeriod:  cfg.CoordinationPeriod,
			FederationStaleness: fed.Staleness(),
		}, tree)
		auditor.Attach(cl, cfg.AuditSampleEvery)
	}

	// Pumps: one self-rescheduling live event per node, submitting each
	// resident's accrued arrivals directly into the node's scheduler.
	// Everything the pump and the completion callbacks touch is owned by
	// the node's shard.
	for i := range cells {
		c := &cells[i]
		eng := c.node.Shard().Engine()
		sched := c.node.HDFSSched
		pool := c.node.Requests()
		var step func()
		step = func() {
			c.series = append(c.series, pool.Outstanding())
			for ri := range c.residents {
				r := &c.residents[ri]
				r.credit += r.rate * tickPeriod
				for ; r.credit >= 1; r.credit-- {
					c.rng = splitmix64(c.rng)
					size := cfg.MeanRequestBytes * (0.5 + 1.5*unit(c.rng))
					req := pool.Get()
					req.AppIdx = r.idx
					req.Class = iosched.PersistentRead
					req.Size = size
					req.Done = c
					if err := sched.Submit(req); err != nil {
						c.err = fmt.Errorf("scale: node %d rejected submit: %w", i, err)
						return
					}
					c.submitted++
				}
			}
			if eng.Now()+tickPeriod < cfg.Horizon-1e-9 {
				eng.Schedule(tickPeriod, step)
			}
		}
		eng.Schedule(0, step)
		// Snapshot per-app service at the horizon midpoint and at the
		// horizon: fairness is measured over the second half, after the
		// startup transient has every queue deep. Post-drain totals are
		// vacuous (every submitted request completes), so fairness is
		// only meaningful mid-contention.
		acct := sched.Accounting()
		eng.ScheduleDaemon(cfg.Horizon/2, func() {
			for ri := range c.residents {
				r := &c.residents[ri]
				r.halfCost = acct.Service(r.id).Cost
			}
		})
		eng.ScheduleDaemon(cfg.Horizon, func() {
			for ri := range c.residents {
				r := &c.residents[ri]
				r.fullCost = acct.Service(r.id).Cost
			}
		})
	}

	// Heap watermark: baseline after construction, sampled on the
	// coordinator each tick. Host-dependent by nature; never feeds the
	// digest.
	hw := metrics.NewHeapWatermark()
	coord := cl.Eng
	var sampleHeap func()
	sampleHeap = func() {
		hw.Sample()
		coord.ScheduleDaemon(tickPeriod, sampleHeap)
	}
	coord.ScheduleDaemon(tickPeriod, sampleHeap)

	wall0 := time.Now()
	cl.RunUntil(math.Inf(1))
	wall := time.Since(wall0).Seconds()
	hw.Sample()

	if auditor != nil {
		auditor.Finish()
	}
	for i := range cells {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
	}

	// Merge cells in node order.
	rep := &Report{Population: pop}
	st := &rep.Stats
	st.Nodes, st.Tenants, st.Apps = cfg.Nodes, cfg.Tenants, pop.NumApps()
	digest := uint64(fnvOffset)
	ticks := 0
	for i := range cells {
		if len(cells[i].series) > ticks {
			ticks = len(cells[i].series)
		}
	}
	// SFQ(D) bounds |W_f/w_f - W_g/w_g| over an interval by roughly
	// D·maxcost per flow per endpoint (~2·D·maxcost per flow), so the
	// ratio is only meaningful for flows whose window service dominates
	// that bound: with a floor of 8·D·maxcost the per-flow error is
	// ≤ 25% and the pairwise ratio provably ≤ (1.25/0.75) ≈ 1.67 — the
	// same granularity guard the audit applies per window.
	minWindowCost := 8 * float64(cfg.Depth) * 2 * cfg.MeanRequestBytes
	worstRatio := 1.0
	for i := range cells {
		c := &cells[i]
		st.Submitted += c.submitted
		st.Completed += c.completed
		st.BytesServed += c.bytes
		digest = fnvUint(digest, c.digest)
		lo, hi := math.Inf(1), 0.0
		for _, r := range c.residents {
			window := r.fullCost - r.halfCost
			if window < minWindowCost {
				continue
			}
			norm := window / r.weight
			if norm < lo {
				lo = norm
			}
			if norm > hi {
				hi = norm
			}
		}
		if hi > 0 && lo < math.Inf(1) && hi/lo > worstRatio {
			worstRatio = hi / lo
		}
	}
	for k := 0; k < ticks; k++ {
		inflight := 0
		for i := range cells {
			if k < len(cells[i].series) {
				inflight += cells[i].series[k]
			}
		}
		if inflight > st.PeakInFlight {
			st.PeakInFlight = inflight
		}
	}
	st.FairnessMaxRatio = worstRatio
	st.Digest = digest
	if root := cl.FederationRoot(); root != nil {
		fs := root.Stats()
		st.Partitions = len(cl.Partitions())
		st.FedSyncs = fs.Syncs
		st.FedSnapshots = fs.Snapshots
		st.FedUpBytes = fs.UpBytes
		st.FedDownBytes = fs.DownBytes
		st.BaselineBytes = cl.BrokerStats().BytesApprox()
	}
	st.Events = cl.Fired()
	st.ShardLoad = cl.ShardLoad()
	st.WallSeconds = wall
	if wall > 0 {
		st.EventsPerSec = float64(st.Events) / wall
	}
	st.PeakHeapBytes = hw.Peak()
	if st.PeakInFlight > 0 {
		st.BytesPerFlow = float64(hw.Growth()) / float64(st.PeakInFlight)
	}
	st.BytesPerNode = float64(hw.Growth()) / float64(cfg.Nodes)

	if auditor != nil {
		rep.Violations = len(auditor.Violations())
		rep.AuditErr = auditor.Err()
		rep.AuditChecks = auditor.Checks()
	}
	if st.Completed != st.Submitted {
		return rep, fmt.Errorf("scale: %d of %d requests never completed", st.Submitted-st.Completed, st.Submitted)
	}
	return rep, nil
}
