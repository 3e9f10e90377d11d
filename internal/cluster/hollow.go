// Hollow datanodes: the kubemark/clusterloader2 idea applied to the
// simulated cluster. A hollow node keeps only what the scale harness
// measures — one HDFS device, its interposed I/O scheduler, and (under
// coordination) its broker client — and drops everything else: the
// local intermediate device, both NIC processor-sharing resources, and
// the optional network scheduler. Per-node state shrinks to a few
// hundred bytes plus the scheduler's flow table, so thousands of nodes
// with millions of requests in flight fit one process.
//
// What a hollow cluster validates: scheduler tag arithmetic, dispatch
// and fairness at scale, broker coordination traffic and fault
// handling, fabric window scheduling under skew, and the memory/
// throughput envelope of the per-request structures. What it does not
// validate: anything involving the local device, shuffle transfers, or
// NIC contention — those paths are simply absent (SubmitIO rejects
// non-persistent classes, Send panics on the nil NIC).
package cluster

import "ibis/internal/sim"

// NewHollowSharded assembles a hollow cluster across a fresh fabric of
// cfg.Nodes+1 shards (shard 0 the coordinator, shard 1+i datanode i),
// exactly like NewSharded but with hollow nodes.
func NewHollowSharded(cfg Config, lookahead float64, fo sim.FabricOptions) (*Cluster, error) {
	cfg.Hollow = true
	return NewSharded(cfg, lookahead, fo)
}
