// Package cluster assembles the simulated big-data cluster: datanodes
// with two storage devices each (one for HDFS data, one for
// intermediate data, as in the paper's testbed), gigabit NICs, CPU
// slots and memory, plus the per-device interposed I/O schedulers wired
// according to the chosen policy and, optionally, the Scheduling Broker
// for distributed coordination.
package cluster

import (
	"fmt"
	"sync"

	"ibis/internal/broker"
	"ibis/internal/cgroups"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Policy selects the I/O scheduling configuration of every datanode.
type Policy int

const (
	// Native is stock Hadoop/YARN: no I/O management at all.
	Native Policy = iota
	// SFQD interposes a classic SFQ(D) scheduler with a static depth on
	// both devices.
	SFQD
	// SFQD2 interposes the paper's SFQ(D2) adaptive-depth scheduler on
	// both devices.
	SFQD2
	// CGWeight models YARN extended with cgroups proportional weights:
	// intermediate I/O is weight-scheduled, HDFS I/O is uncontrolled.
	CGWeight
	// CGThrottle models cgroups bandwidth caps on intermediate I/O;
	// HDFS I/O is uncontrolled.
	CGThrottle
	// Reserve is the non-work-conserving strict-partitioning extreme
	// discussed in the paper's Section 9: every app is paced at its
	// reserved bandwidth on every device, isolation is absolute, and
	// unused reservations are wasted.
	Reserve
)

// String names the policy as the paper's figures label it.
func (p Policy) String() string {
	switch p {
	case Native:
		return "Native"
	case SFQD:
		return "SFQ(D)"
	case SFQD2:
		return "SFQ(D2)"
	case CGWeight:
		return "CG(weight)"
	case CGThrottle:
		return "CG(throttle)"
	case Reserve:
		return "Reservation"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// nicBandwidth is the per-direction NIC rate in bytes/second (gigabit
// Ethernet ≈ 117 MB/s effective).
const nicBandwidth = 117e6

// networkDepth is the NIC schedulers' dispatch depth. Unlike disks,
// links gain nothing from a small bound (it only breaks transfer
// pipelining), so it is a deep 128: weighted fairness without
// admission control.
const networkDepth = 128

// Config describes the cluster. The zero value is completed by
// defaults() to the paper's testbed shape: 8 worker datanodes, 12 cores
// and 24 GB of task memory each, two HDDs, gigabit Ethernet.
type Config struct {
	// Nodes is the number of datanodes (the paper uses 8 workers).
	Nodes int
	// CoresPerNode is the CPU slot count per node (2 × 6 cores).
	CoresPerNode int
	// MemGBPerNode is task memory per node (192 GB total / 8).
	MemGBPerNode float64
	// HDFSDisk and LocalDisk are the device models for persistent and
	// intermediate storage respectively.
	HDFSDisk  storage.Spec
	LocalDisk storage.Spec

	// Policy picks the scheduler wiring.
	Policy Policy
	// SFQDepth is the static depth for SFQD and CGWeight.
	SFQDepth int
	// Controller parameterizes SFQD2. If its reference latencies are
	// zero they are filled by profiling the device specs.
	Controller iosched.ControllerConfig
	// ThrottleLimits maps capped apps to bytes/second for CGThrottle.
	ThrottleLimits map[iosched.AppID]float64
	// ReservationRates maps each app to its per-device reserved service
	// rate (cost units/second) for the Reserve policy;
	// ReservationDefault applies to unlisted apps.
	ReservationRates   map[iosched.AppID]float64
	ReservationDefault float64
	// ScheduleNetwork interposes a weighted fair (SFQ) scheduler on
	// every egress NIC as well — the paper's OpenFlow-style extension,
	// at dispatch depth networkDepth.
	ScheduleNetwork bool

	// Coordinate enables the Scheduling Broker (the paper's "Sync").
	Coordinate bool
	// CoordinationPeriod is the broker exchange period in seconds
	// (default 1, piggybacked on heartbeats in the prototype).
	CoordinationPeriod float64
	// Federation splits the broker plane into partition brokers under a
	// root aggregator (sharded assembly only). The zero value is one
	// partition broker on the coordinator shard.
	Federation Federation
	// Faults, when non-nil, injects the compiled fault schedule into
	// the coordination plane: exchanges suffer its message faults,
	// outages and leader outages, and scheduler restarts and
	// device-degradation windows are armed on the engines. Nil keeps
	// every message reliable.
	Faults *faults.Injector

	// Shares is the runtime weight control plane every request resolves
	// through at tag time. Nil gets a fresh tree whose implicit
	// singleton tenants reproduce flat per-app weights exactly.
	Shares *shares.Tree

	// Hollow strips each datanode to the scale-harness minimum: one
	// HDFS device with its interposed scheduler and (with Coordinate)
	// its broker client. No local device, no NICs, no network
	// scheduler — the kubemark-style hollow node. Hollow nodes accept
	// only persistent-class SubmitIO; Send/SendTagged are unsupported.
	Hollow bool
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 12
	}
	if c.MemGBPerNode <= 0 {
		c.MemGBPerNode = 24
	}
	if c.HDFSDisk.Name == "" {
		c.HDFSDisk = storage.HDDSpec()
	}
	if c.LocalDisk.Name == "" {
		c.LocalDisk = storage.HDDSpec()
	}
	if c.SFQDepth <= 0 {
		c.SFQDepth = 4
	}
	if c.CoordinationPeriod <= 0 {
		c.CoordinationPeriod = 1
	}
	if c.Coordinate && c.Federation.Enabled() {
		c.Federation.defaults(c.CoordinationPeriod)
	}
}

// IOObserver receives every completed I/O on a node's storage
// schedulers, with the node index and the scheduler-observed total
// latency. Used by experiment probes and throughput meters. The
// *Request is valid only during the call: node-issued requests are
// recycled after completion, so an observer keeps no pointer.
type IOObserver func(node int, req *iosched.Request, latency float64)

// Node is one datanode.
type Node struct {
	Index int

	// HDFS and Local are the two storage devices.
	HDFS  *storage.Device
	Local *storage.Device
	// HDFSSched and LocalSched are the interposed schedulers in front
	// of them.
	HDFSSched  iosched.Scheduler
	LocalSched iosched.Scheduler

	nicOut *sim.PSResource
	nicIn  *sim.PSResource
	// NetSched, when non-nil, schedules the egress NIC (the
	// OpenFlow-style extension); tagged sends pass through it.
	NetSched iosched.Scheduler
	// probes are the lifecycle probes Instrument installed on
	// HDFSSched, LocalSched and NetSched, in that order.
	probes [3]iosched.Probe

	// Cores and MemGB are the task resource capacities; UsedCores and
	// UsedMemGB are maintained by the slot scheduler.
	Cores     int
	MemGB     float64
	UsedCores int
	UsedMemGB float64

	// Dead marks a failed node: it accepts no new tasks and its local
	// data (map outputs, block replicas) is considered lost. In-flight
	// device operations drain (the failure model is node-level, not a
	// mid-request disk crash).
	Dead bool

	// shard owns this node's devices, NICs and schedulers: its own
	// fabric shard under NewSharded, the coordinator's single shard
	// under New.
	shard    *sim.Shard
	requests *iosched.RequestPool // only n's shard touches it
}

// FreeCores returns unallocated CPU slots.
func (n *Node) FreeCores() int { return n.Cores - n.UsedCores }

// FreeMemGB returns unallocated task memory.
func (n *Node) FreeMemGB() float64 { return n.MemGB - n.UsedMemGB }

// Cluster is the assembled system. Eng is the coordinator shard's
// engine; under NewSharded each node's devices live on that node's own
// shard engine, under New every node shares the coordinator's shard.
type Cluster struct {
	Eng    *sim.Engine
	Nodes  []*Node
	cfg    Config
	shares *shares.Tree

	coord     *sim.Shard   // the coordinator shard, wrapping Eng
	fabric    *sim.Fabric  // nil in single-engine mode
	meta      []*sim.Shard // dedicated metadata shards (sharded mode)
	plane     *brokerPlane // nil without coordination
	clients   []ClientRef
	byID      map[string]*broker.Client
	devByName map[string]*storage.Device
	// engByID maps "node<i>-<dev>" — both a device name and a
	// coordination-client id — to the engine that owns it, so fault
	// schedules arm on the right shard.
	engByID map[string]*sim.Engine
}

// Shares returns the cluster's weight control plane.
func (c *Cluster) Shares() *shares.Tree { return c.shares }

// ClientRef locates one coordination client: the node index, the
// device label ("hdfs"/"local"), and the client itself.
type ClientRef struct {
	Node int
	Dev  string
	C    *broker.Client
}

// New assembles a cluster on the given engine. For SFQD2, zero
// reference latencies in cfg.Controller are filled by offline profiling
// of the device specs (one profile per distinct spec, as the paper's
// one-time calibration).
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	return assemble(eng, nil, cfg)
}

// assemble builds the cluster on a single engine (fab == nil: the
// coordinator and every node share one shard wrapping eng) or across a
// fabric of per-node shards (fab != nil; eng is then the coordinator
// shard's engine).
func assemble(eng *sim.Engine, fab *sim.Fabric, cfg Config) (*Cluster, error) {
	cfg.defaults()
	if err := cfg.Federation.validate(cfg, fab != nil); err != nil {
		return nil, err
	}
	if err := cfg.HDFSDisk.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: HDFS disk: %w", err)
	}
	if !cfg.Hollow {
		if err := cfg.LocalDisk.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: local disk: %w", err)
		}
	}
	var hdfsCtrl, localCtrl iosched.ControllerConfig
	if cfg.Policy == SFQD2 {
		var err error
		hdfsCtrl, err = fillController(cfg.Controller, cfg.HDFSDisk)
		if err != nil {
			return nil, err
		}
		if !cfg.Hollow {
			localCtrl, err = fillController(cfg.Controller, cfg.LocalDisk)
			if err != nil {
				return nil, err
			}
		}
	}

	if cfg.Shares == nil {
		cfg.Shares = shares.NewTree()
	}
	cfg.Shares.SetClock(eng.Now)
	c := &Cluster{
		Eng: eng, cfg: cfg, shares: cfg.Shares, fabric: fab,
		byID:      make(map[string]*broker.Client),
		devByName: make(map[string]*storage.Device),
		engByID:   make(map[string]*sim.Engine),
	}
	if fab != nil {
		c.coord = fab.Shard(0)
	} else {
		c.coord = sim.NewShard(eng)
	}
	if cfg.Coordinate {
		c.buildBrokerPlane(fab, cfg)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			Index:    i,
			Cores:    cfg.CoresPerNode,
			MemGB:    cfg.MemGBPerNode,
			shard:    c.coord,
			requests: new(iosched.RequestPool),
		}
		if fab != nil {
			n.shard = fab.Shard(i + 1)
		}
		nodeEng := n.shard.Engine()
		n.HDFS = storage.NewDevice(nodeEng, fmt.Sprintf("node%d-hdfs", i), cfg.HDFSDisk)
		c.devByName[fmt.Sprintf("node%d-hdfs", i)] = n.HDFS
		c.engByID[fmt.Sprintf("node%d-hdfs", i)] = nodeEng

		var err error
		n.HDFSSched, err = c.buildScheduler(nodeEng, n.HDFS, true, hdfsCtrl)
		if err != nil {
			return nil, err
		}
		if !cfg.Hollow {
			n.Local = storage.NewDevice(nodeEng, fmt.Sprintf("node%d-local", i), cfg.LocalDisk)
			c.devByName[fmt.Sprintf("node%d-local", i)] = n.Local
			c.engByID[fmt.Sprintf("node%d-local", i)] = nodeEng
			n.nicOut = sim.NewPSResource(nodeEng, fmt.Sprintf("node%d-nic-out", i), sim.ConstantCapacity(nicBandwidth))
			n.nicIn = sim.NewPSResource(nodeEng, fmt.Sprintf("node%d-nic-in", i), sim.ConstantCapacity(nicBandwidth))
			n.LocalSched, err = c.buildScheduler(nodeEng, n.Local, false, localCtrl)
			if err != nil {
				return nil, err
			}
			if cfg.ScheduleNetwork {
				if n.NetSched, err = iosched.NewSFQD(nodeEng, &linkBackend{res: n.nicOut}, c.shares, networkDepth); err != nil {
					return nil, err
				}
			}
		}

		if c.plane != nil {
			c.attach(n, nodeEng, "hdfs", n.HDFSSched, fmt.Sprintf("node%d-hdfs", i))
			if !cfg.Hollow {
				c.attach(n, nodeEng, "local", n.LocalSched, fmt.Sprintf("node%d-local", i))
			}
		}
		c.Nodes = append(c.Nodes, n)
	}
	if cfg.Faults != nil {
		c.armFaults(cfg.Faults)
	}
	return c, nil
}

// armFaults schedules the injector's restarts and device-degradation
// windows, each on the engine owning the targeted client or device (in
// sharded mode that is the node's shard engine). Both schedules come
// pre-sorted, so event sequence numbers — and the whole run — stay
// deterministic.
func (c *Cluster) armFaults(inj *faults.Injector) {
	for _, r := range inj.RestartSchedule() {
		client := c.byID[r.ID]
		if client == nil {
			continue
		}
		c.engByID[r.ID].ScheduleDaemon(r.At, func() { client.Restart() })
	}
	for _, d := range inj.DegradeSchedule() {
		dev := c.devByName[d.Device]
		if dev == nil {
			continue
		}
		factor := d.Factor
		eng := c.engByID[d.Device]
		eng.ScheduleDaemon(d.Window.Start, func() { dev.SetDisturbance(factor) })
		eng.ScheduleDaemon(d.Window.End, func() { dev.SetDisturbance(1) })
	}
}

// buildScheduler wires one device according to the policy, every
// scheduler weighing its requests through the cluster's share tree.
// persistent marks the HDFS device: cgroups policies leave it
// uncontrolled. The policy and its parameters arrive from the public
// config, so an unknown policy or a bad rate table is an input error
// surfaced from New, not a panic.
func (c *Cluster) buildScheduler(eng *sim.Engine, dev *storage.Device, persistent bool, ctrl iosched.ControllerConfig) (iosched.Scheduler, error) {
	src := c.shares
	switch c.cfg.Policy {
	case Native:
		return iosched.NewFIFO(eng, dev, src), nil
	case SFQD:
		return iosched.NewSFQD(eng, dev, src, c.cfg.SFQDepth)
	case SFQD2:
		return iosched.NewSFQD2(eng, dev, src, ctrl)
	case CGWeight:
		if persistent {
			return iosched.NewFIFO(eng, dev, src), nil
		}
		return cgroups.NewWeight(eng, dev, src, c.cfg.SFQDepth)
	case CGThrottle:
		if persistent {
			return iosched.NewFIFO(eng, dev, src), nil
		}
		return cgroups.NewThrottle(eng, dev, src, c.cfg.ThrottleLimits)
	case Reserve:
		return iosched.NewReservation(eng, dev, src, c.cfg.ReservationRates, c.cfg.ReservationDefault)
	default:
		return nil, fmt.Errorf("cluster: unknown policy %d", int(c.cfg.Policy))
	}
}

// linkBackend adapts an egress NIC to the scheduler Backend interface:
// the cost of a transfer is its size (links are symmetric).
type linkBackend struct {
	res *sim.PSResource
}

// Cost implements iosched.Backend.
func (l *linkBackend) Cost(_ storage.OpKind, size float64) float64 { return size }

// Submit implements iosched.Backend.
func (l *linkBackend) Submit(_ storage.OpKind, size float64, done sim.DoneFunc, arg any) {
	l.res.Submit(size, done, arg)
}

// nicHopDone completes a NIC hop: arg is the func() that continues the
// transfer (nil for none).
func nicHopDone(arg any, _ float64) {
	if fn := arg.(func()); fn != nil {
		fn()
	}
}

// then is a pooled request's continuation: Complete calls it. A func
// value is pointer-shaped, so storing one in the request's Done
// allocates nothing.
type then func()

// Complete implements iosched.Done.
func (fn then) Complete(*iosched.Request, float64) { fn() }

// attach connects an SFQ scheduler to its partition broker; non-SFQ
// schedulers cannot coordinate and are skipped. The client lives on
// the node's engine and reaches the partition through its own
// asyncTransport, except on one engine with faults, where every client
// shares the faults package's transport (DESIGN §9 says why).
func (c *Cluster) attach(n *Node, eng *sim.Engine, dev string, s iosched.Scheduler, id string) {
	sfq, ok := s.(*iosched.SFQ)
	if !ok {
		return
	}
	var tr broker.Transport
	if c.plane.local != nil {
		tr = c.plane.local
	} else {
		p := c.plane.partOf(n.Index, c.cfg.Nodes)
		tr = &asyncTransport{to: c.plane.parts[p], inj: c.cfg.Faults, shard: n.shard, at: c.plane.shards[p]}
	}
	client := broker.NewClient(eng, id, sfq.Accounting(), broker.ClientOptions{
		Transport: tr,
		Period:    c.cfg.CoordinationPeriod,
		Shares:    c.shares,
	})
	client.BindScheduler(sfq)
	sfq.SetCoordinator(client)
	c.clients = append(c.clients, ClientRef{Node: n.Index, Dev: dev, C: client})
	c.byID[id] = client
}

// Clients returns the coordination clients, one per SFQ scheduler, in
// node order (hdfs before local per node).
func (c *Cluster) Clients() []ClientRef { return c.clients }

// DetachNode permanently disconnects node i's coordination clients
// from the broker, as the cluster membership service would when the
// node is declared dead: its last-reported service vectors are
// withdrawn and surviving nodes stop being delayed on its behalf.
func (c *Cluster) DetachNode(i int) {
	for _, ref := range c.clients {
		if ref.Node == i {
			ref.C.Detach()
		}
	}
}

// RetireApp tells every partition broker the application with index ai
// in the cluster's share tree has finished cluster-wide: its totals are
// dropped and late straggler reports for it are ignored, so a
// long-lived AppID cannot haunt future jobs with stale service. No-op
// without coordination.
func (c *Cluster) RetireApp(ai iosched.AppIdx) {
	c.eachPartition(func(b *broker.Broker) { b.Retire(ai) })
}

// ReviveApp undoes RetireApp for a reused AppID (e.g. consecutive Hive
// stages). No-op without coordination.
func (c *Cluster) ReviveApp(ai iosched.AppIdx) {
	c.eachPartition(func(b *broker.Broker) { b.Revive(ai) })
}

// CoordinationHealth merges the failure-handling counters of every
// coordination client into one cluster-wide view.
func (c *Cluster) CoordinationHealth() metrics.CoordinationHealth {
	var h metrics.CoordinationHealth
	for _, ref := range c.clients {
		h.Merge(ref.C.Health())
	}
	return h
}

// SetDegradeObserver registers cluster-level callbacks fired when any
// client degrades to local fairness or recovers, identified by (node,
// device label). The audit layer wires in here to switch invariant
// regimes in step with the schedulers.
func (c *Cluster) SetDegradeObserver(onDegrade, onRecover func(node int, dev string, t float64)) {
	for _, ref := range c.clients {
		ref := ref
		if onDegrade != nil {
			ref.C.SetOnDegrade(func(t float64) { onDegrade(ref.Node, ref.Dev, t) })
		}
		if onRecover != nil {
			ref.C.SetOnRecover(func(t float64) { onRecover(ref.Node, ref.Dev, t) })
		}
	}
}

// profileCache memoizes per-spec calibration: the paper's profiling
// "needs to be done only once for a given storage setup".
var profileCache sync.Map // string -> storage.Profile

// ProfileFor returns the (cached) offline calibration for a device spec.
func ProfileFor(spec storage.Spec) (storage.Profile, error) {
	key := fmt.Sprintf("%+v", spec)
	if p, ok := profileCache.Load(key); ok {
		return p.(storage.Profile), nil
	}
	prof, err := storage.ProfileDevice(spec)
	if err != nil {
		return storage.Profile{}, err
	}
	profileCache.Store(key, prof)
	return prof, nil
}

// fillController completes a controller config with profiled reference
// latencies for the given device spec if they are unset.
func fillController(base iosched.ControllerConfig, spec storage.Spec) (iosched.ControllerConfig, error) {
	if base.ReadLref > 0 {
		return base, nil
	}
	prof, err := ProfileFor(spec)
	if err != nil {
		return base, fmt.Errorf("cluster: profiling %s: %w", spec.Name, err)
	}
	base.ReadLref = prof.ReadLref
	base.WriteLref = prof.WriteLref
	return base, nil
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetIOObserver adds obs to every node's HDFS and local schedulers
// (NIC schedulers stay unobserved): an Instrument probe that reports
// each completion.
func (c *Cluster) SetIOObserver(obs IOObserver) {
	c.Instrument(func(_, node int, dev string, _ iosched.Scheduler) iosched.Probe {
		if dev == "nic" {
			return nil
		}
		return iosched.ProbeFunc(func(req *iosched.Request, st iosched.ProbeState) {
			if st.Event == iosched.ProbeComplete {
				obs(node, req, st.Latency)
			}
		})
	})
}

// Instrument adds a request-lifecycle probe to every scheduler of every
// node; it is the only way anything observes a scheduler. build is
// called once per scheduler with the ID of the shard whose engine
// drives it, the node index, the device label ("hdfs", "local", or
// "nic"), and the scheduler itself, and returns the probe to add (nil
// leaves that scheduler as it is). Each probe runs after the ones
// earlier calls installed, so the tracer, the auditor and any
// completion observer attach independently.
func (c *Cluster) Instrument(build func(shard, node int, dev string, s iosched.Scheduler) iosched.Probe) {
	for _, n := range c.Nodes {
		for i, d := range [...]struct {
			label string
			sched iosched.Scheduler
		}{{"hdfs", n.HDFSSched}, {"local", n.LocalSched}, {"nic", n.NetSched}} {
			if d.sched == nil {
				continue
			}
			if p := build(n.shard.ID(), n.Index, d.label, d.sched); p != nil {
				n.probes[i] = iosched.MultiProbe(n.probes[i], p)
				d.sched.SetProbe(n.probes[i])
			}
		}
	}
}

// TotalCores returns the cluster-wide CPU slot count.
func (c *Cluster) TotalCores() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.Cores
	}
	return t
}

// SubmitIO routes one tagged request on node n: persistent classes go
// to the HDFS device's scheduler, intermediate classes to the local
// device's, network transfers to the NIC's (if the cluster schedules
// it) — the routing the IBIS interposition layer performs in DataNode
// and NodeManager. req.AppIdx is the app's index in the cluster's share
// tree, which every scheduler weighs through. The caller must be
// executing on n's shard (or at a barrier); Done fires there. A
// non-nil error means the request was rejected and will never
// complete.
func (n *Node) SubmitIO(req *iosched.Request) error {
	s, err := n.route(req.Class)
	if err != nil {
		return err
	}
	return s.Submit(req)
}

// IO is SubmitIO for a request of app (its index in the cluster's share
// tree) drawn from the node's pool, whose completion calls done (nil
// for none) on n's shard. The caller must be executing on n's shard.
func (n *Node) IO(app iosched.AppIdx, class iosched.Class, size float64, done func()) error {
	s, err := n.route(class)
	if err != nil {
		return err
	}
	req := n.requests.Get()
	req.AppIdx, req.Class, req.Size = app, class, size
	if done != nil {
		req.Done = then(done)
	}
	return s.Submit(req)
}

// Requests returns the node's request pool; draw from it only on n's
// shard. Its Outstanding count is the node's live request population.
func (n *Node) Requests() *iosched.RequestPool { return n.requests }

// route returns the scheduler a class of I/O passes through on n.
func (n *Node) route(class iosched.Class) (iosched.Scheduler, error) {
	s := n.LocalSched
	if class.Persistent() {
		s = n.HDFSSched
	} else if class == iosched.NetworkTransfer {
		s = n.NetSched
	}
	if s == nil {
		return nil, fmt.Errorf("cluster: node %d has no scheduler for class %v", n.Index, class)
	}
	return s, nil
}

// Send models a network transfer of size bytes from node n to dst: a
// processor-shared pass through n's egress NIC then dst's ingress NIC.
// The caller must be executing on n's shard; done fires on dst's shard
// when the last byte arrives.
func (n *Node) Send(dst *Node, size float64, done func()) {
	n.nicOut.Submit(size, nicHopDone, n.arrival(dst, size, done))
}

// SendTagged is Send with application attribution (app is the app's
// index in the cluster's share tree): when the cluster schedules
// network bandwidth, the egress hop passes through the NIC's weighted
// fair scheduler; otherwise it behaves exactly like Send. The
// transfer's weight resolves through the share tree at tag time, like
// any other scheduled I/O. A non-nil error means the NIC scheduler
// rejected the transfer and done will never fire.
func (n *Node) SendTagged(dst *Node, app iosched.AppIdx, size float64, done func()) error {
	if n.NetSched == nil || size <= 0 {
		n.Send(dst, size, done)
		return nil
	}
	return n.IO(app, iosched.NetworkTransfer, size, n.arrival(dst, size, done))
}

// arrival continues a transfer once its last byte has left n: the hop
// to dst's shard (a direct call when both nodes share one), then dst's
// ingress NIC — skipped for an empty transfer — then done.
func (n *Node) arrival(dst *Node, size float64, done func()) func() {
	return func() {
		n.shard.Post(dst.shard.ID(), 0, func() {
			if size <= 0 {
				if done != nil {
					done()
				}
				return
			}
			dst.nicIn.Submit(size, nicHopDone, done)
		})
	}
}

// NICOutBusy returns seconds the egress NIC was busy (for overhead and
// saturation analysis).
func (n *Node) NICOutBusy() float64 { return n.nicOut.BusyTime() }

// NICInBusy returns seconds the ingress NIC was busy.
func (n *Node) NICInBusy() float64 { return n.nicIn.BusyTime() }
