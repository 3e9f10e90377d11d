package workloads

// Generated multi-tenant populations for the scale harness: thousands
// of tenants × apps with log-uniform weights, deterministic replica
// placement across hollow datanodes, and open-loop arrival rates sized
// so every app stays continuously backlogged (the regime in which
// proportional-share fairness is defined and the audit's share checks
// engage). Everything is a pure function of the seed — the same
// PopulationConfig yields byte-identical populations on every run and
// every shard worker count.

import (
	"fmt"
	"math"

	"ibis/internal/iosched"
	"ibis/internal/shares"
)

// PopulationConfig parameterizes Generate. Zero fields take defaults
// sized for a small smoke population.
type PopulationConfig struct {
	// Tenants and AppsPerTenant size the population; the share tree
	// gets Tenants × AppsPerTenant leaves.
	Tenants       int
	AppsPerTenant int
	// Seed drives every sampled weight and placement offset.
	Seed uint64
	// TenantWeightMax and AppWeightMax bound the log-uniform weight
	// draws; the minimum is 1. Defaults: 8 and 4.
	TenantWeightMax float64
	AppWeightMax    float64
	// Nodes is the hollow cluster size apps are placed onto; Replicas
	// is how many nodes each app runs on (clamped to Nodes).
	Nodes    int
	Replicas int
	// LoadFactor scales every app's arrival rate relative to its fair
	// share of node service capacity. Values above 1 keep queues
	// non-empty (open-loop overload); default 1.4.
	LoadFactor float64
}

func (c *PopulationConfig) defaults() {
	if c.Tenants <= 0 {
		c.Tenants = 16
	}
	if c.AppsPerTenant <= 0 {
		c.AppsPerTenant = 1
	}
	if c.TenantWeightMax < 1 {
		c.TenantWeightMax = 8
	}
	if c.AppWeightMax < 1 {
		c.AppWeightMax = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > c.Nodes {
		c.Replicas = c.Nodes
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.4
	}
}

// AppSpec is one generated application: its ID, its weight
// inside the tenant, the nodes it runs on, and its share of the
// open-loop load (RateShare sums to 1 over the population; the harness
// multiplies by aggregate cluster load).
type AppSpec struct {
	ID        iosched.AppID
	Tenant    string
	Weight    float64
	Nodes     []int
	RateShare float64
}

// TenantSpec is one generated tenant with its apps.
type TenantSpec struct {
	Name   string
	Weight float64
	Apps   []AppSpec
}

// Population is a generated tenant/app universe.
type Population struct {
	Tenants []TenantSpec

	cfg PopulationConfig
}

// splitmix64 is the SplitMix64 step — a tiny, allocation-free,
// stdlib-independent PRNG adequate for weight and placement draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a splitmix output to (0,1).
func unit(x uint64) float64 {
	return (float64(x>>11) + 0.5) / (1 << 53)
}

// Generate builds the population for cfg. Tenant t gets name
// "tenant-<t>"; its apps are "tenant-<t>/app-<a>". Weights are
// log-uniform in [1, max]; replica placement strides the node ring so
// per-node populations stay balanced (each node hosts
// ≈ Tenants×AppsPerTenant×Replicas/Nodes apps).
func Generate(cfg PopulationConfig) *Population {
	cfg.defaults()
	p := &Population{cfg: cfg}
	rng := splitmix64(cfg.Seed ^ 0x1b15) // domain-separate from other users of the seed
	appIdx := 0
	stride := cfg.Nodes / cfg.Replicas
	if stride == 0 {
		stride = 1
	}
	// First pass draws weights; effective weight density determines
	// RateShare, so backlog pressure tracks entitlement.
	totalEff := 0.0
	for t := 0; t < cfg.Tenants; t++ {
		rng = splitmix64(rng)
		ts := TenantSpec{
			Name:   fmt.Sprintf("tenant-%04d", t),
			Weight: math.Exp(unit(rng) * math.Log(cfg.TenantWeightMax)),
		}
		for a := 0; a < cfg.AppsPerTenant; a++ {
			rng = splitmix64(rng)
			w := math.Exp(unit(rng) * math.Log(cfg.AppWeightMax))
			nodes := make([]int, cfg.Replicas)
			base := appIdx % cfg.Nodes
			for r := 0; r < cfg.Replicas; r++ {
				nodes[r] = (base + r*stride) % cfg.Nodes
			}
			id := iosched.AppID(fmt.Sprintf("%s/app-%02d", ts.Name, a))
			ts.Apps = append(ts.Apps, AppSpec{
				ID:     id,
				Tenant: ts.Name,
				Weight: w,
				Nodes:  nodes,
			})
			totalEff += ts.Weight * w
			appIdx++
		}
		p.Tenants = append(p.Tenants, ts)
	}
	for t := range p.Tenants {
		ts := &p.Tenants[t]
		for a := range ts.Apps {
			app := &ts.Apps[a]
			app.RateShare = ts.Weight * app.Weight / totalEff
		}
	}
	return p
}

// Apps returns every generated app in deterministic (tenant, app)
// order.
func (p *Population) Apps() []AppSpec {
	var out []AppSpec
	for _, t := range p.Tenants {
		out = append(out, t.Apps...)
	}
	return out
}

// NumApps returns the population size in apps.
func (p *Population) NumApps() int {
	return len(p.Tenants) * p.cfg.AppsPerTenant
}

// Bind populates the share tree with every tenant and app, pinning app
// weights explicitly so later Binds cannot override them. The tree
// must be fully populated before a sharded run starts — node shards
// resolve weights at tag time and the tree's auto-bind-on-read would
// be a cross-shard mutation — which is exactly what Bind guarantees.
func (p *Population) Bind(tree *shares.Tree) error {
	for _, t := range p.Tenants {
		if err := tree.Tenant(t.Name, t.Weight); err != nil {
			return err
		}
		for _, a := range t.Apps {
			if err := tree.Bind(a.ID, t.Name, a.Weight); err != nil {
				return err
			}
			if err := tree.SetAppWeight(a.ID, a.Weight); err != nil {
				return err
			}
		}
	}
	return nil
}

// ArrivalRate returns app's open-loop request arrival rate in
// requests/second given the per-node service rate (requests/second a
// node sustains) — sized so the aggregate offered load is LoadFactor ×
// the capacity of the nodes, split across apps by weight. Per node the
// app submits ArrivalRate/len(Nodes).
func (p *Population) ArrivalRate(app AppSpec, nodeServiceRate float64) float64 {
	capacity := float64(p.cfg.Nodes) * nodeServiceRate
	return app.RateShare * capacity * p.cfg.LoadFactor
}
