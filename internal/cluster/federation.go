// Federated coordination assembly: the broker plane split across
// partition shards.
//
// Topology. With Federation.Partitions = P (> 1, sharded mode only)
// the fabric grows P extra shards beyond the coordinator and the
// datanodes: shard 0 stays the coordinator and now hosts the root
// aggregator, shard 1+i is datanode i as before, and shard
// 1+Nodes+p is partition broker p. Node i's coordination clients talk
// to partition p(i) = i·P/Nodes — a contiguous slice assignment, so
// partition membership is a pure function of the node index. Client
// exchanges cross one fabric hop to the partition shard (not the
// coordinator), which is what finally moves the per-period
// O(nodes × apps) exchange work off the serial coordinator shard and
// splits it across workers; only the delta-compressed partition↔root
// syncs — O(changed entries), a few bytes each — still land on
// shard 0.
//
// Sync cadence. Each partition shard runs a daemon tick every
// Federation.AggregationPeriod: it uplinks the partition's per-app
// service quanta to the root, the root folds them and replies with the
// changed global tenant quanta, one lookahead per leg. Client
// responses merge fresh local totals with that root view, so the extra
// staleness a client can observe is bounded by roughly two aggregation
// periods plus the round trip — the bound the audit's share-federated
// regime enforces. A partition whose leader the fault schedule has
// killed answers ErrUnavailable (clients degrade to local SFQ(D) and
// recover, as under a centralized outage) and resyncs by snapshot
// after the outage.
package cluster

import (
	"fmt"

	"ibis/internal/broker"
	"ibis/internal/sim"
)

// Federation configures the federated broker plane. The zero value
// disables it (centralized broker).
type Federation struct {
	// Partitions is the partition broker count; ≤ 1 keeps the
	// centralized broker. Requires sharded assembly and Coordinate.
	Partitions int
	// AggregationPeriod is the partition↔root sync period in seconds
	// (default: the coordination period).
	AggregationPeriod float64
	// StalenessK bounds tolerated root-view staleness: after K
	// aggregation periods without an applied downlink a partition fails
	// client exchanges, degrading its schedulers to local SFQ(D) rather
	// than running the delay rule on arbitrarily stale totals
	// (default 4).
	StalenessK int
}

func (f *Federation) defaults(coordPeriod float64) {
	if f.AggregationPeriod <= 0 {
		f.AggregationPeriod = coordPeriod
	}
	if f.StalenessK <= 0 {
		f.StalenessK = 4
	}
}

// Enabled reports whether the config asks for a federated plane.
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

// fedPlane is the assembled federation: the root on the coordinator
// shard and one Partition per partition shard.
type fedPlane struct {
	cfg   Federation
	root  *broker.Aggregator
	parts []*broker.Partition
	// shards[p] owns partition p; rootShard is the coordinator.
	shards    []*sim.Shard
	rootShard *sim.Shard
}

// partOf maps a node index to its partition: contiguous slices, the
// same discipline the trace/audit merge planes use for determinism.
func (f *fedPlane) partOf(node, nodes int) int {
	return node * len(f.parts) / nodes
}

// buildFederation assembles the plane and arms the per-partition sync
// daemons. Called from assemble with the fabric already sized for the
// partition shards.
func (c *Cluster) buildFederation(fab *sim.Fabric, cfg Config) error {
	fed := cfg.Federation
	if fab == nil {
		return fmt.Errorf("cluster: federation requires sharded assembly")
	}
	if fed.Partitions > cfg.Nodes {
		return fmt.Errorf("cluster: %d partitions exceed %d nodes", fed.Partitions, cfg.Nodes)
	}
	plane := &fedPlane{
		cfg:       fed,
		root:      broker.NewAggregator(c.shares),
		rootShard: fab.Shard(0),
	}
	for p := 0; p < fed.Partitions; p++ {
		part := broker.NewPartition(p, c.shares, float64(fed.StalenessK)*fed.AggregationPeriod)
		if inj := cfg.Faults; inj != nil {
			pid := p
			part.SetDownOracle(func(now float64) bool { return inj.LeaderDown(pid, now) })
		}
		ps := fab.Shard(1 + cfg.Nodes + p)
		plane.parts = append(plane.parts, part)
		plane.shards = append(plane.shards, ps)
		c.armPartitionSync(plane, p)
	}
	c.fed = plane
	return nil
}

// armPartitionSync schedules partition p's periodic root sync on its
// own shard engine: uplink to the coordinator shard, fold, downlink
// reply — each leg one fabric hop. Daemon events: coordination must
// not keep the simulation alive.
func (c *Cluster) armPartitionSync(plane *fedPlane, p int) {
	part := plane.parts[p]
	ps := plane.shards[p]
	eng := ps.Engine()
	rootShard := plane.rootShard
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

// FederationRoot returns the root aggregator, or nil when the plane is
// centralized.
func (c *Cluster) FederationRoot() *broker.Aggregator {
	if c.fed == nil {
		return nil
	}
	return c.fed.root
}

// Partitions returns the partition brokers in partition order (empty
// when centralized).
func (c *Cluster) Partitions() []*broker.Partition {
	if c.fed == nil {
		return nil
	}
	return c.fed.parts
}

// PartitionOf returns the partition index owning node i's coordination
// clients (-1 when centralized).
func (c *Cluster) PartitionOf(i int) int {
	if c.fed == nil {
		return -1
	}
	return c.fed.partOf(i, c.cfg.Nodes)
}

// FederationStats returns the root's federation-plane traffic counters
// (zero when centralized).
func (c *Cluster) FederationStats() broker.FedStats {
	if c.fed == nil {
		return broker.FedStats{}
	}
	return c.fed.root.Stats()
}

// CentralizedBaselineBytes returns the wire volume the centralized
// full-vector broker would have shipped for the same client exchange
// traffic: the partition brokers serve identical report/response
// rounds, so the sum of their approximate exchange bytes is the
// apples-to-apples baseline the federation plane's measured bytes are
// gated against.
func (c *Cluster) CentralizedBaselineBytes() uint64 {
	var total uint64
	if c.fed != nil {
		for _, p := range c.fed.parts {
			total += p.Broker().Stats().BytesApprox()
		}
	} else if c.Broker != nil {
		total = c.Broker.Stats().BytesApprox()
	}
	return total
}
