// Package ibis is a faithful reimplementation of IBIS — the Interposed
// Big-data I/O Scheduler (Xu & Zhao, HPDC 2016) — on a deterministic
// discrete-event simulation of a Hadoop/YARN cluster.
//
// IBIS provides I/O performance differentiation for applications that
// share a big-data system. Its pieces, all implemented here:
//
//   - an I/O interposition layer on every datanode that tags and
//     schedules persistent (HDFS), intermediate (local FS), and shuffle
//     I/O per application;
//   - SFQ(D2), a proportional-share start-time-fair-queueing scheduler
//     whose dispatch depth D is adapted online by an integral feedback
//     controller steering observed latency toward a profiled reference;
//   - a centralized Scheduling Broker that lets the distributed
//     schedulers enforce proportional sharing of the *total* cluster
//     I/O service (the DSFQ delay rule);
//   - the substrates the paper evaluates on: an HDFS-like DFS, a
//     MapReduce/YARN execution engine with a fair slot scheduler, a
//     Hive-style query compiler, calibrated HDD/SSD device models, and
//     the cgroups baselines IBIS is compared against.
//
// # Quick start
//
//	sim, _ := ibis.New(ibis.Config{Policy: ibis.SFQD2})
//	wc := ibis.WordCount(6e9, 6)
//	wc.Weight = 32
//	tg := ibis.TeraGen(125e9, 96)
//	tg.Weight = 1
//	sim.Submit(wc, 0)
//	sim.Submit(tg, 0)
//	sim.Run()
//
// Runs are fully deterministic: a fixed Config.Seed reproduces the
// exact same virtual-time execution.
package ibis

import (
	"fmt"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/faults"
	"ibis/internal/hive"
	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
	"ibis/internal/workloads"
)

// Policy selects the per-datanode I/O scheduling configuration.
type Policy = cluster.Policy

// Scheduling policies.
const (
	// Native is stock Hadoop/YARN: no I/O management.
	Native = cluster.Native
	// SFQD is classic SFQ(D) with a static dispatch depth.
	SFQD = cluster.SFQD
	// SFQD2 is the paper's adaptive-depth scheduler.
	SFQD2 = cluster.SFQD2
	// CGWeight is the cgroups proportional-weight baseline.
	CGWeight = cluster.CGWeight
	// CGThrottle is the cgroups bandwidth-cap baseline.
	CGThrottle = cluster.CGThrottle
	// Reserve is the non-work-conserving strict-partitioning extreme
	// (paper §9).
	Reserve = cluster.Reserve
)

// AppID identifies an application cluster-wide.
type AppID = iosched.AppID

// Class identifies an I/O class (persistent vs. intermediate, read vs.
// write); see iosched.Class.
type Class = iosched.Class

// I/O classes, re-exported for SetClassWeight.
const (
	PersistentRead    = iosched.PersistentRead
	PersistentWrite   = iosched.PersistentWrite
	IntermediateRead  = iosched.IntermediateRead
	IntermediateWrite = iosched.IntermediateWrite
)

// ShareTree is the cluster's runtime weight control plane — the
// tenant → application → I/O-class share tree; see internal/shares.
type ShareTree = shares.Tree

// ShareTransition records one control-plane mutation (reweight, bind,
// tenant declaration) with the epoch it produced.
type ShareTransition = shares.Transition

// JobSpec describes a MapReduce application (see mapreduce.JobSpec).
type JobSpec = mapreduce.JobSpec

// Job is a submitted application.
type Job = mapreduce.Job

// JobResult summarizes a finished job.
type JobResult = mapreduce.Result

// Query is a Hive query plan.
type Query = hive.Query

// QueryExecution tracks a running Hive query.
type QueryExecution = hive.Execution

// QueryOptions configure SubmitQuery.
type QueryOptions = hive.RunOptions

// Workload constructors, re-exported for convenience.
var (
	// TeraGen builds a map-only generator writing totalBytes.
	TeraGen = workloads.TeraGenSpec
	// TeraSort builds a full sort over inputBytes.
	TeraSort = workloads.TeraSortSpec
	// WordCount builds a compute-heavy scan with small output.
	WordCount = workloads.WordCountSpec
	// TeraValidate builds a read-mostly scan.
	TeraValidate = workloads.TeraValidateSpec
	// Q9 and Q21 are the paper's TPC-H query plans.
	Q9  = hive.Q9
	Q21 = hive.Q21
)

// Config describes the simulated cluster and scheduling policy. The
// zero value reproduces the paper's testbed: 8 datanodes with 12 cores,
// 24 GB of task memory and two HDDs each, gigabit Ethernet, 128 MB DFS
// blocks with 3× replication, and the Native (no I/O management)
// policy.
type Config struct {
	// Nodes, CoresPerNode, MemGBPerNode shape the cluster.
	Nodes        int
	CoresPerNode int
	MemGBPerNode float64
	// SSD switches both per-node devices to the flash model.
	SSD bool
	// Policy picks the I/O scheduler; SFQDepth applies to SFQD and
	// CGWeight.
	Policy   Policy
	SFQDepth int
	// Coordinate enables the Scheduling Broker (total-service
	// proportional sharing).
	Coordinate bool
	// ThrottleLimits caps apps (bytes/second) under CGThrottle.
	ThrottleLimits map[AppID]float64
	// ReservationRates / ReservationDefault configure the Reserve
	// policy (per-device cost units per second).
	ReservationRates   map[AppID]float64
	ReservationDefault float64
	// ScheduleNetwork adds weighted fair scheduling on the NICs (the
	// paper's OpenFlow-style extension).
	ScheduleNetwork bool
	// CoordinationPeriod is the broker exchange period in seconds
	// (0 = the paper's 1 s).
	CoordinationPeriod float64
	// BlockSize and Replication configure the DFS (0 = Table 1
	// defaults: 128 MB, 3).
	BlockSize   float64
	Replication int
	// Seed drives all randomness (placement, workload sampling).
	Seed int64

	// TraceCapacity, when positive, enables request-level lifecycle
	// tracing into a ring buffer of that many records (use
	// trace.DefaultCapacity for a sensible size). The trace is
	// retrievable via Simulation.Trace.
	TraceCapacity int
	// Audit enables online invariant auditing of every scheduler (and
	// the broker, when coordinating); results via Simulation.Audit.
	Audit bool

	// Faults, when non-nil, compiles and injects a deterministic fault
	// schedule into the coordination plane: broker outages, per-node
	// partitions, message loss/delay, scheduler restarts, and device
	// degradation windows, all pure functions of (Faults.Seed, virtual
	// time). Requires Coordinate for the coordination faults to have a
	// target; device degradations apply regardless.
	Faults *FaultSpec
}

// FaultSpec declares the deterministic fault schedule; see
// internal/faults.Spec.
type FaultSpec = faults.Spec

// FaultWindow is a [start, end) virtual-time interval.
type FaultWindow = faults.Window

// CoordinationHealth aggregates the coordination plane's
// failure-handling counters; see internal/metrics.
type CoordinationHealth = metrics.CoordinationHealth

// Tracer is the request-level lifecycle trace buffer; see
// internal/trace.
type Tracer = trace.Tracer

// TraceRecord is one traced lifecycle event.
type TraceRecord = trace.Record

// Auditor is the online invariant checker; see internal/audit.
type Auditor = audit.Auditor

// AuditViolation is one observed invariant breach.
type AuditViolation = audit.Violation

// Simulation is an assembled cluster plus execution engine.
type Simulation struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	nn  *dfs.Namenode
	rt  *mapreduce.Runtime
	tr  *trace.Tracer
	au  *audit.Auditor
}

// New assembles a simulation.
func New(cfg Config) (*Simulation, error) {
	eng := sim.NewEngine()
	disk := storage.HDDSpec()
	if cfg.SSD {
		disk = storage.SSDSpec()
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.New(*cfg.Faults)
	}
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              cfg.Nodes,
		CoresPerNode:       cfg.CoresPerNode,
		MemGBPerNode:       cfg.MemGBPerNode,
		HDFSDisk:           disk,
		LocalDisk:          disk,
		Policy:             cfg.Policy,
		SFQDepth:           cfg.SFQDepth,
		ThrottleLimits:     cfg.ThrottleLimits,
		ReservationRates:   cfg.ReservationRates,
		ReservationDefault: cfg.ReservationDefault,
		ScheduleNetwork:    cfg.ScheduleNetwork,
		Coordinate:         cfg.Coordinate,
		CoordinationPeriod: cfg.CoordinationPeriod,
		Faults:             inj,
	})
	if err != nil {
		return nil, fmt.Errorf("ibis: %w", err)
	}
	nn := dfs.NewNamenode(dfs.Config{
		Nodes:       len(cl.Nodes),
		BlockSize:   cfg.BlockSize,
		Replication: cfg.Replication,
		Seed:        cfg.Seed,
	})
	rt := mapreduce.NewRuntime(eng, cl, nn, mapreduce.Config{})
	s := &Simulation{eng: eng, cl: cl, nn: nn, rt: rt}
	if cfg.TraceCapacity > 0 {
		s.tr = trace.New(cfg.TraceCapacity, cl.Shares())
		s.tr.Attach(cl)
	}
	if cfg.Audit {
		s.au = audit.New(audit.Options{CoordinationPeriod: cfg.CoordinationPeriod}, cl.Shares())
		s.au.CheckTenants()
		s.au.Attach(cl, 1)
	}
	return s, nil
}

// Submit schedules a job after delay seconds of virtual time.
func (s *Simulation) Submit(spec JobSpec, delay float64) (*Job, error) {
	return s.rt.Submit(spec, delay)
}

// SubmitQuery schedules a Hive query (its stages chain automatically).
func (s *Simulation) SubmitQuery(q Query, opts QueryOptions) (*QueryExecution, error) {
	return hive.Run(s.rt, q, opts)
}

// DefinePool declares a Fair Scheduler pool with aggregate core and
// memory caps; jobs join it via JobSpec.Pool.
func (s *Simulation) DefinePool(name string, maxCores int, maxMemGB float64) {
	s.rt.DefinePool(name, maxCores, maxMemGB)
}

// OnJobDone registers a completion callback (fires for failed jobs
// too; check Job.Failed).
func (s *Simulation) OnJobDone(fn func(*Job)) { s.rt.OnJobDone(fn) }

// FailNode injects a datanode failure at the current virtual time:
// running tasks are killed and requeued, completed map outputs on the
// node re-execute, and the DFS falls back to surviving replicas. A job
// that loses every replica of an input block fails gracefully. An index
// outside [0, Nodes) is an error.
func (s *Simulation) FailNode(idx int) error { return s.rt.FailNode(idx) }

// Schedule runs fn after delay seconds of virtual time — the hook for
// scripting failure injection and other mid-run interventions.
func (s *Simulation) Schedule(delay float64, fn func()) { s.eng.Schedule(delay, fn) }

// Run executes until all submitted work completes and returns the
// final virtual time in seconds. If auditing is enabled the open audit
// windows are closed at the end of the run.
func (s *Simulation) Run() float64 {
	t := s.eng.Run()
	if s.au != nil {
		s.au.Finish()
	}
	return t
}

// RunUntil executes events up to the virtual-time limit. It leaves the
// audit windows open, so a run split across RunUntil calls is audited
// as one run; after a final RunUntil, call Audit().Finish().
func (s *Simulation) RunUntil(limit float64) float64 {
	return s.eng.RunUntil(limit)
}

// Shares returns the cluster's share tree for direct control-plane
// access (the convenience methods below cover the common operations).
func (s *Simulation) Shares() *ShareTree { return s.cl.Shares() }

// Tenant declares a tenant with the given cluster-wide weight, or
// updates it live. Jobs and queries join a tenant via JobSpec.Tenant /
// QueryOptions.Tenant; undeclared tenants are auto-created at weight 1
// on first use.
func (s *Simulation) Tenant(name string, weight float64) error {
	return s.cl.Shares().Tenant(name, weight)
}

// SetWeight changes an application's I/O weight live: the new weight
// takes effect cluster-wide at the app's next request tag, without
// resubmission and without breaking tag monotonicity. It also pins the
// weight against later job-submission overrides.
func (s *Simulation) SetWeight(app AppID, weight float64) error {
	return s.cl.Shares().SetAppWeight(app, weight)
}

// SetClassWeight sets an application's per-I/O-class weight multiplier
// (default 1) — e.g. deprioritize intermediate spills relative to
// persistent reads of the same app.
func (s *Simulation) SetClassWeight(app AppID, class Class, mult float64) error {
	return s.cl.Shares().SetClassWeight(app, class, mult)
}

// EffectiveWeight resolves the weight a scheduler would use right now
// for (app, class): tenantWeight × appWeight × classMultiplier.
func (s *Simulation) EffectiveWeight(app AppID, class Class) float64 {
	_, w, _ := s.cl.Shares().Resolve(app, class)
	return w
}

// ShareEpoch returns the share tree's current version; it increments
// on every control-plane mutation.
func (s *Simulation) ShareEpoch() uint64 { return s.cl.Shares().Epoch() }

// ShareTransitions returns the control-plane mutation log.
func (s *Simulation) ShareTransitions() []ShareTransition {
	return s.cl.Shares().Transitions()
}

// Trace returns the lifecycle tracer, or nil when Config.TraceCapacity
// was zero.
func (s *Simulation) Trace() *Tracer { return s.tr }

// Audit returns the invariant auditor, or nil when Config.Audit was
// false. Run finishes it; a run that ends with RunUntil must call
// Audit().Finish() before reading the verdict.
func (s *Simulation) Audit() *Auditor { return s.au }

// Now returns the current virtual time.
func (s *Simulation) Now() float64 { return s.eng.Now() }

// Jobs lists all submitted jobs in submission order.
func (s *Simulation) Jobs() []*Job { return s.rt.Jobs() }

// TotalCores returns the cluster's CPU slot count.
func (s *Simulation) TotalCores() int { return s.cl.TotalCores() }

// CoordinationHealth returns the merged failure-handling counters of
// every coordination client (all zero without coordination).
func (s *Simulation) CoordinationHealth() CoordinationHealth {
	return s.cl.CoordinationHealth()
}

// Cluster exposes the underlying cluster for advanced fault scripting
// (detaching nodes, retiring apps, inspecting clients).
func (s *Simulation) Cluster() *cluster.Cluster { return s.cl }

// BrokerTotal returns the cluster-wide cumulative I/O service (cost
// units) the Scheduling Broker has recorded for an app; zero without
// coordination.
func (s *Simulation) BrokerTotal(app AppID) float64 {
	var total float64
	for _, p := range s.cl.Partitions() {
		total += p.Broker().Total(app)
	}
	return total
}

// DeviceStats aggregates cluster-wide storage counters.
type DeviceStats struct {
	ReadBytes  float64
	WriteBytes float64
	Flushes    uint64
}

// Storage returns aggregate device counters across all datanodes.
func (s *Simulation) Storage() DeviceStats {
	var out DeviceStats
	for _, n := range s.cl.Nodes {
		for _, d := range []*storage.Device{n.HDFS, n.Local} {
			st := d.Stats()
			out.ReadBytes += st.ReadBytes
			out.WriteBytes += st.WriteBytes
			out.Flushes += st.Flushes
		}
	}
	return out
}

// IOObserver receives every completed I/O request; see
// cluster.IOObserver. The *Request is valid only during the call: the
// simulator recycles its requests, so an observer copies what it needs.
type IOObserver = cluster.IOObserver

// SetIOObserver adds a completion observer to every storage scheduler;
// see cluster.Cluster.SetIOObserver.
func (s *Simulation) SetIOObserver(obs IOObserver) { s.cl.SetIOObserver(obs) }
