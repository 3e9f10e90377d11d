package experiments

import (
	"fmt"
	"strings"

	"ibis/internal/metrics"
	"ibis/internal/scale"
)

// DefaultScaleFlows is the scale experiment's default target of peak
// in-flight requests; FlowHorizon turns it into a horizon.
const DefaultScaleFlows = 100_000

// DefaultScaleConfig is the CI-sized "scale" run: two hundred hollow
// nodes, a thousand tenants, a hundred thousand flows in flight, and a
// second leg on four workers.
func DefaultScaleConfig() scale.Config {
	return scale.Config{
		Nodes:         200,
		Tenants:       1000,
		AppsPerTenant: 1,
		Seed:          1,
		Horizon:       FlowHorizon(DefaultScaleFlows, 200),
		Workers:       4,
	}
}

// DefaultFederationConfig is the CI-sized "federation" run: two
// hundred hollow nodes coordinated through four partition brokers, and
// a second leg on four workers.
func DefaultFederationConfig() scale.Config {
	return scale.Config{
		Nodes:         200,
		Tenants:       1000,
		AppsPerTenant: 1,
		Seed:          1,
		Horizon:       10,
		Workers:       4,
		Coordinate:    true,
		Partitions:    4,
	}
}

// FlowHorizon derives the submission horizon that accumulates roughly
// flows outstanding requests on nodes nodes: under the default 1.4×
// offered load with sizes uniform on [0.5, 2)×mean (served mean
// 1.25×mean), the per-node backlog grows at ≈ rate × (1.4 − 1/1.25) ≈
// 60 requests/s. It is never below 5 s.
func FlowHorizon(flows, nodes int) float64 {
	const backlogPerNode = 60.0
	return max(5, float64(flows)/(backlogPerNode*float64(nodes)))
}

// HollowRow is one leg of a hollow-node run.
type HollowRow struct {
	Workers int
	Stats   metrics.ScaleStats
	Checks  map[string]uint64
}

// HollowResult reports a hollow-node run of the scale harness
// (internal/scale): the same generated population run serially and on
// the sharded fabric, with the deterministic surface (population,
// traffic, fairness, federation byte counters, digest) printed on
// stdout and the host-dependent envelope (events/sec, peak heap,
// bytes/flow) surfaced through StderrNote. With more than one
// partition, compression is federation bytes on the wire vs the
// centralized-equivalent client traffic the partition brokers carried.
type HollowResult struct {
	Config scale.Config
	Rows   []HollowRow
	Match  bool // all digests identical across worker counts
}

func (r *HollowResult) String() string {
	var b strings.Builder
	st := r.Rows[0].Stats
	federated := r.Config.Partitions > 1
	if federated {
		fmt.Fprintf(&b, "federation: %d partition brokers over %d nodes\n", r.Config.Partitions, r.Config.Nodes)
	} else {
		fmt.Fprintf(&b, "scale: hollow-node harness (horizon %gs)\n", r.Config.Horizon)
	}
	b.WriteString(st.Deterministic())
	if federated {
		fmt.Fprintf(&b, "compression=%.1fx\n", st.FedCompression())
		checks := r.Rows[0].Checks
		fmt.Fprintf(&b, "audit: share-federated=%d federation-conservation=%d\n",
			checks["share-federated"], checks["federation-conservation"])
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "workers=%d digest=%016x\n", row.Workers, row.Stats.Digest)
	}
	fmt.Fprintf(&b, "deterministic-across-workers=%v\n", r.Match)
	return b.String()
}

// StderrNote reports the wall-clock envelope, which varies by host and
// must stay off the deterministic stdout surface.
func (r *HollowResult) StderrNote() string {
	var b strings.Builder
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteString("; ")
		}
		st := row.Stats
		fmt.Fprintf(&b, "workers=%d events/sec=%.0f wall=%.1fs peak-heap=%.0fMB bytes/flow=%.0f",
			row.Workers, st.EventsPerSec, st.WallSeconds, float64(st.PeakHeapBytes)/1e6, st.BytesPerFlow)
	}
	return b.String()
}

// Hollow runs cfg through the scale harness with the auditor on, first
// at one worker and then, when cfg.Workers > 1, again at cfg.Workers:
// every leg must be audit-clean, run cfg.Partitions partitions when
// federated, and end with the same digest.
func Hollow(cfg scale.Config) (*HollowResult, error) {
	if cfg.Nodes <= 0 || cfg.Tenants <= 0 {
		return nil, fmt.Errorf("scale: nodes and tenants must be positive")
	}
	cfg.Audit = true
	// Sample roughly 16 nodes: full probe logs at thousands of nodes
	// would dominate the heap the harness is measuring.
	cfg.AuditSampleEvery = max(1, cfg.Nodes/16)
	workers := []int{1}
	if cfg.Workers > 1 {
		workers = append(workers, cfg.Workers)
	}
	res := &HollowResult{Config: cfg, Match: true}
	for _, w := range workers {
		leg := cfg
		leg.Workers = w
		rep, err := scale.Run(leg)
		if err != nil {
			return nil, err
		}
		if rep.AuditErr != nil {
			return nil, fmt.Errorf("scale: workers=%d audit: %w", w, rep.AuditErr)
		}
		if cfg.Partitions > 1 && rep.Stats.Partitions != cfg.Partitions {
			return nil, fmt.Errorf("scale: workers=%d ran %d partitions, want %d",
				w, rep.Stats.Partitions, cfg.Partitions)
		}
		res.Rows = append(res.Rows, HollowRow{Workers: w, Stats: rep.Stats, Checks: rep.AuditChecks})
		if rep.Stats.Digest != res.Rows[0].Stats.Digest {
			res.Match = false
		}
	}
	if !res.Match {
		return nil, fmt.Errorf("scale: digests diverged across worker counts")
	}
	return res, nil
}
