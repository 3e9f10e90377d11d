// Sharded cluster assembly: one simulation shard per datanode plus a
// coordinator shard, advancing concurrently under the fabric's
// conservative synchronization.
//
// One model, two shard layouts. New places the coordinator and every
// datanode on a single shard wrapping the caller's engine; NewSharded
// gives each its own. The node code is the same for both: a datanode's
// devices, NICs, schedulers and coordination clients live on its
// node's shard, I/O submits are calls on that shard, and every edge to
// another node or to its partition broker — a NIC-to-NIC hop, a
// completion, a broker exchange — is a Shard.Post. On one shard a post
// to itself is a direct call, so a single-engine cluster runs exactly
// the zero-latency model; across shards each post is a timestamped
// message. The broker plane is the same on both layouts (see
// federation.go): one partition broker on the coordinator shard unless
// a sharded cluster asks for more.
//
// Partitioning. Shard 0 (the coordinator) owns what is genuinely
// cluster-global: the fair scheduler's slot accounting, per-job
// barriers (map/reduce completion counts), the lone partition broker
// or the federation root, and the share tree's clock. Shard 1+i owns
// datanode i and the running task attempts placed on it (their chunk
// pipelines, shuffle fetchers and merge loops; see the mapreduce
// runtime). A full (non-hollow) sharded cluster also carries DefaultMetaShards metadata shards, after the
// federation partitions, hosting the partitioned namenode's placement
// draws so they never serialize on shard 0. Every cross-shard
// interaction travels as a timestamped inter-shard message, so each
// engine remains single-owner and the run is bit-identical for every
// worker count.
//
// The fabric lookahead plays the role of the cluster's control-plane
// RPC latency: a launch, a completion notification, a NIC-to-NIC hop
// and a broker exchange leg each take at least one lookahead of
// virtual time. The sharded model is therefore not bit-identical to
// the single-shard model (which has zero-latency control edges); it
// is its own deterministic system, pinned by comparing worker counts
// against each other.
//
// Constraints. The share tree must be fully populated before the
// fabric runs: node shards resolve weights at tag time, and the tree's
// auto-bind-on-read would be a cross-shard mutation. mapreduce.Submit
// binds every job's app synchronously at submission, so submitting all
// jobs before Run (as the experiments do) satisfies this; mid-run
// reweighting, Hive stage submission and FailNode are unsupported on
// more than one shard. A sharded cluster running MapReduce needs a
// namenode partitioned across its metadata shards
// (dfs.Config.Partitions = len(MetaShards())): an unpartitioned one
// would draw output placements from one shared stream on every node
// shard.
package cluster

import (
	"ibis/internal/broker"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/sim"
)

// DefaultLookahead is the default cross-shard latency (virtual
// seconds) when a caller passes none: a LAN-class control RPC, two
// orders of magnitude below the coordination period, far above float
// noise.
const DefaultLookahead = 0.02

// NewSharded assembles a cluster across a fresh fabric: shard 0 is the
// coordinator (Cluster.Eng is its engine), shard 1+i is datanode i,
// then the federation partitions and, for full nodes, the
// DefaultMetaShards metadata shards. lookahead (≤0 = DefaultLookahead)
// becomes the minimum virtual latency of every cross-shard edge;
// fo.Workers sets the physical parallelism and changes nothing else.
func NewSharded(cfg Config, lookahead float64, fo sim.FabricOptions) (*Cluster, error) {
	cfg.defaults()
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	extra := 0
	if cfg.Coordinate && cfg.Federation.Enabled() {
		extra = cfg.Federation.Partitions
	}
	// Hollow nodes run no DFS, so they get no metadata plane.
	meta := DefaultMetaShards
	if cfg.Hollow {
		meta = 0
	}
	f := sim.NewFabric(cfg.Nodes+1+extra+meta, lookahead, fo)
	c, err := assemble(f.Shard(0).Engine(), f, cfg)
	if err != nil {
		return nil, err
	}
	for p := 0; p < meta; p++ {
		c.meta = append(c.meta, f.Shard(1+cfg.Nodes+extra+p))
	}
	return c, nil
}

// DefaultMetaShards is the metadata shard count of a full (non-hollow)
// sharded assembly.
const DefaultMetaShards = 2

// MetaShards returns the dedicated metadata shards (empty in
// single-engine or hollow mode). The partitioned namenode's partition
// p draws on shard p%len.
func (c *Cluster) MetaShards() []*sim.Shard { return c.meta }

// Shards returns the number of simulation shards: 1 for New, the
// fabric's shard count for NewSharded.
func (c *Cluster) Shards() int {
	if c.fabric == nil {
		return 1
	}
	return c.fabric.Shards()
}

// RunUntil runs the simulation until it drains or its clock passes
// limit (+Inf = run to completion): the engine's RunUntil on one
// shard, the fabric's on many.
func (c *Cluster) RunUntil(limit float64) {
	if c.fabric == nil {
		c.Eng.RunUntil(limit)
		return
	}
	c.fabric.RunUntil(limit)
}

// OnBarrier registers fn to run at every fabric barrier, between
// windows, when no shard is running. A single-engine cluster has no
// barriers and never calls fn.
func (c *Cluster) OnBarrier(fn func()) {
	if c.fabric != nil {
		c.fabric.OnBarrier(fn)
	}
}

// Fired returns the number of events executed across every shard.
func (c *Cluster) Fired() uint64 {
	if c.fabric == nil {
		return c.Eng.Fired()
	}
	return c.fabric.Fired()
}

// FabricStats returns the fabric's window and message counters (nil on
// one shard).
func (c *Cluster) FabricStats() *sim.FabricStats {
	if c.fabric == nil {
		return nil
	}
	st := c.fabric.Stats()
	return &st
}

// ShardLoad returns the per-shard occupancy of the run (empty on one
// shard): how much of the event work the coordinator kept versus what
// the decomposition moved to node and metadata shards.
func (c *Cluster) ShardLoad() metrics.ShardStats {
	if c.fabric == nil {
		return metrics.ShardStats{}
	}
	ev, busy := c.fabric.Occupancy()
	return metrics.ShardStats{Events: ev, Busy: busy}
}

// SetNodeUplinkLatency raises the minimum virtual latency of messages
// leaving every datanode shard to lat seconds (≥ the fabric
// lookahead). Node→coordinator traffic is periodic control RPCs
// (heartbeat-piggybacked exchanges), so a looser uplink bound is
// faithful to real clusters — and it widens the conservative
// synchronization windows: the fabric can run each shard further ahead
// before a barrier, cutting barrier count roughly by lat/lookahead.
// Coordinator and partition shards keep the tight bound, so response
// legs stay fast. No-op in single-engine mode.
func (c *Cluster) SetNodeUplinkLatency(lat float64) {
	if c.fabric == nil {
		return
	}
	for i := range c.Nodes {
		c.fabric.SetShardOutLatency(1+i, lat)
	}
}

// Shard returns the shard owning the node's devices.
func (n *Node) Shard() *sim.Shard { return n.shard }

// CoordShard returns the coordinator shard.
func (c *Cluster) CoordShard() *sim.Shard { return c.coord }

// asyncTransport carries one coordination client's broker traffic to
// its partition: the request is a daemon message to the partition's
// shard, where the fault model is evaluated, and the response a daemon
// message back. When the client and the partition share a shard each
// post is a direct call. Daemon, because periodic coordination must
// not keep the simulation alive.
type asyncTransport struct {
	to    *broker.Partition
	inj   *faults.Injector // nil = reliable
	shard *sim.Shard       // the client's node shard
	at    *sim.Shard       // the partition's shard
	seq   uint64           // per-client fate counter, advanced on the partition's shard
}

var _ broker.Transport = (*asyncTransport)(nil)

// roundTrip delivers one message from client id to the partition's
// shard and rolls its fate there. Unless the request is lost, apply
// runs against the partition; unless the response is lost, reply receives its
// error (or the outage) back on the client's shard. Fates use a
// per-client sequence counter: messages from one client arrive in send
// order, so the counter — and with it every fault roll — is
// independent of how other clients' traffic interleaves.
func (t *asyncTransport) roundTrip(id string, apply func(now float64) error, reply func(error)) {
	src := t.shard.ID()
	t.shard.PostDaemon(t.at.ID(), 0, func() {
		now := t.at.Engine().Now()
		var fate faults.MsgFate
		if t.inj != nil {
			fate = t.inj.Fate(id, t.seq, now)
			t.seq++
		}
		if fate.Unavailable {
			t.at.PostDaemon(src, 0, func() { reply(broker.ErrUnavailable) })
			return
		}
		if fate.ReqDrop {
			return // lost in flight; the client's timeout covers it
		}
		if err := apply(now); err != nil {
			t.at.PostDaemon(src, 0, func() { reply(err) })
			return
		}
		if fate.RespDrop {
			return // applied, response lost
		}
		t.at.PostDaemon(src, fate.Delay, func() { reply(nil) })
	})
}

// Exchange implements broker.Transport.
func (t *asyncTransport) Exchange(id string, vec map[iosched.AppID]float64, done func(broker.Response, error)) {
	var resp broker.Response
	t.roundTrip(id, func(now float64) (err error) {
		resp, err = t.to.Exchange(id, vec, now)
		return err
	}, func(err error) { done(resp, err) })
}

// Register implements broker.Transport.
func (t *asyncTransport) Register(id string, done func(error)) {
	t.roundTrip(id, func(now float64) error { return t.to.Register(id, now) }, done)
}

// Unregister implements broker.Transport. Out-of-band death detection
// crosses the fabric like everything else, free of message faults; it
// is called from the client's shard (Detach).
func (t *asyncTransport) Unregister(id string) {
	t.shard.PostDaemon(t.at.ID(), 0, func() { t.to.Unregister(id) })
}
