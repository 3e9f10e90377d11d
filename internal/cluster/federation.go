// The broker plane: the Scheduling Broker as one or more partition
// brokers, the same design at every partition count.
//
// Topology. With Coordinate on, the plane is Federation.Partitions (at
// least one) broker.Partition brokers, and node i's coordination
// clients talk to partition p(i) = i·P/Nodes — a contiguous slice
// assignment, a pure function of the node index. With P ≤ 1 the lone
// partition lives on the coordinator shard with no root: a root would
// only echo the partition's own quanta back, so its responses are its
// local books, as the paper's centralized broker's are. With P > 1
// (sharded mode only) shard 0 hosts the root aggregator, shard 1+i is
// datanode i, and shard 1+Nodes+p is partition broker p. Client
// exchanges then cross one fabric hop to the partition shard, which
// moves the per-period O(nodes × apps) exchange work off the serial
// coordinator shard and splits it across workers; only the
// delta-compressed partition↔root syncs — O(changed entries) — still
// land on shard 0.
//
// Sync cadence (P > 1). Each partition shard runs a daemon tick every
// Federation.AggregationPeriod: it uplinks the partition's per-app
// service quanta to the root, the root folds them and replies with the
// changed global tenant quanta, one lookahead per leg. The extra
// staleness a client can observe is bounded by roughly two aggregation
// periods plus the round trip — the bound the audit's share-federated
// regime enforces.
//
// Leader outages. A partition whose leader the fault schedule has
// killed (faults.Spec.LeaderOutages; index 0 is the lone broker at
// P ≤ 1) answers ErrUnavailable: clients degrade to local SFQ(D) and
// recover, and the partition crash-recovers on first contact after the
// outage (resyncing by snapshot when it has a root).
package cluster

import (
	"fmt"

	"ibis/internal/broker"
	"ibis/internal/faults"
	"ibis/internal/sim"
)

// Federation configures the broker plane's partitioning. The zero
// value is one partition.
type Federation struct {
	// Partitions is the partition broker count; ≤ 1 is one partition
	// on the coordinator shard with no root. More requires sharded
	// assembly and Coordinate.
	Partitions int
	// AggregationPeriod is the partition↔root sync period in seconds
	// (default: the coordination period).
	AggregationPeriod float64
}

// stalenessK bounds tolerated root-view staleness: after K aggregation
// periods without an applied downlink a partition fails client
// exchanges, degrading its schedulers to local SFQ(D) rather than
// running the delay rule on arbitrarily stale totals.
const stalenessK = 4

func (f *Federation) defaults(coordPeriod float64) {
	if f.AggregationPeriod <= 0 {
		f.AggregationPeriod = coordPeriod
	}
}

// Enabled reports whether the config asks for more than one partition.
func (f Federation) Enabled() bool { return f.Partitions > 1 }

// Staleness returns the extra coordination staleness the hierarchy
// introduces — the value the audit's share-federated regime adds to
// its bound: up to one aggregation period of uplink age plus one of
// downlink age.
func (f Federation) Staleness() float64 {
	if !f.Enabled() {
		return 0
	}
	return 2 * f.AggregationPeriod
}

// validate rejects a partitioning the assembly cannot honour.
func (f Federation) validate(cfg Config, sharded bool) error {
	switch {
	case !f.Enabled():
		return nil
	case !cfg.Coordinate:
		return fmt.Errorf("cluster: %d broker partitions without Coordinate", f.Partitions)
	case !sharded:
		return fmt.Errorf("cluster: %d broker partitions require sharded assembly", f.Partitions)
	case f.Partitions > cfg.Nodes:
		return fmt.Errorf("cluster: %d partitions exceed %d nodes", f.Partitions, cfg.Nodes)
	}
	return nil
}

// brokerPlane is the assembled coordination plane.
type brokerPlane struct {
	cfg    Federation
	root   *broker.Aggregator // nil for one partition
	parts  []*broker.Partition
	shards []*sim.Shard      // shards[p] owns partition p
	local  *faults.Transport // shared by every client on one engine with faults
}

// partOf maps a node index to its partition: contiguous slices, the
// same discipline the trace/audit merge planes use for determinism.
func (b *brokerPlane) partOf(node, nodes int) int {
	return node * len(b.parts) / nodes
}

// buildBrokerPlane assembles the partitions and, for more than one,
// the root and the per-partition sync daemons. Called from assemble
// with the fabric already sized for the partition shards.
func (c *Cluster) buildBrokerPlane(fab *sim.Fabric, cfg Config) {
	plane := &brokerPlane{cfg: cfg.Federation}
	n, staleAfter := 1, 0.0
	if plane.cfg.Enabled() {
		n = plane.cfg.Partitions
		staleAfter = stalenessK * plane.cfg.AggregationPeriod
		plane.root = broker.NewAggregator(c.shares)
	}
	for p := 0; p < n; p++ {
		part := broker.NewPartition(p, c.shares, staleAfter)
		if inj := cfg.Faults; inj != nil {
			part.SetDownOracle(func(now float64) bool { return inj.LeaderDown(p, now) })
		}
		ps := c.coord
		if plane.root != nil {
			ps = fab.Shard(1 + cfg.Nodes + p)
		}
		plane.parts = append(plane.parts, part)
		plane.shards = append(plane.shards, ps)
		if plane.root != nil {
			c.armPartitionSync(plane, p)
		}
	}
	if fab == nil && cfg.Faults != nil {
		plane.local = faults.NewTransport(c.Eng, cfg.Faults, plane.parts[0])
	}
	c.plane = plane
}

// armPartitionSync schedules partition p's periodic root sync on its
// own shard engine: uplink to the coordinator shard, fold, downlink
// reply — each leg one fabric hop. Daemon events: coordination must
// not keep the simulation alive.
func (c *Cluster) armPartitionSync(plane *brokerPlane, p int) {
	part := plane.parts[p]
	ps := plane.shards[p]
	eng := ps.Engine()
	rootShard := c.coord
	psID := ps.ID()
	var tick func()
	tick = func() {
		if msg, _, ok := part.BuildUplink(eng.Now()); ok {
			ps.PostDaemon(rootShard.ID(), 0, func() {
				down, err := plane.root.HandleUplink(p, msg)
				if err != nil {
					return // sender detects the missed ack and snapshots
				}
				rootShard.PostDaemon(psID, 0, func() {
					_ = part.ApplyDownlink(down, eng.Now())
				})
			})
		}
		eng.ScheduleDaemon(plane.cfg.AggregationPeriod, tick)
	}
	eng.ScheduleDaemon(plane.cfg.AggregationPeriod, tick)
}

// FederationRoot returns the root aggregator, or nil with at most one
// partition.
func (c *Cluster) FederationRoot() *broker.Aggregator {
	if c.plane == nil {
		return nil
	}
	return c.plane.root
}

// Partitions returns the partition brokers in partition order: at
// least one whenever the cluster coordinates, none otherwise.
func (c *Cluster) Partitions() []*broker.Partition {
	if c.plane == nil {
		return nil
	}
	return c.plane.parts
}

// PartitionShard returns the ID of the shard owning partition p.
func (c *Cluster) PartitionShard(p int) int { return c.plane.shards[p].ID() }

// BrokerStats sums the client exchange traffic every partition broker
// served (zero without coordination). Its BytesApprox is the wire
// volume a centralized full-vector broker would have shipped for the
// same rounds — the baseline the federation plane's measured bytes are
// gated against.
func (c *Cluster) BrokerStats() broker.Stats {
	var st broker.Stats
	for _, p := range c.Partitions() {
		st.Merge(p.Broker().Stats())
	}
	return st
}

// eachPartition runs fn against every partition broker on its shard,
// from the coordinator's context: a direct call on the coordinator
// shard, one daemon hop otherwise. A federated partition's next uplink
// carries the change to the root as explicit-zero deltas.
func (c *Cluster) eachPartition(fn func(*broker.Broker)) {
	for i, part := range c.Partitions() {
		b := part.Broker()
		c.coord.PostDaemon(c.plane.shards[i].ID(), 0, func() { fn(b) })
	}
}
