package workloads

import (
	"math"
	"reflect"
	"testing"

	"ibis/internal/shares"
)

func TestPopulationDeterministic(t *testing.T) {
	cfg := PopulationConfig{Tenants: 50, AppsPerTenant: 3, Seed: 7, Nodes: 10, Replicas: 3}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatal("same config generated different populations")
	}
	c := Generate(PopulationConfig{Tenants: 50, AppsPerTenant: 3, Seed: 8, Nodes: 10, Replicas: 3})
	if reflect.DeepEqual(a.Tenants, c.Tenants) {
		t.Fatal("different seeds generated identical populations")
	}
}

func TestPopulationShape(t *testing.T) {
	cfg := PopulationConfig{Tenants: 40, AppsPerTenant: 2, Seed: 1, Nodes: 8, Replicas: 3}
	p := Generate(cfg)
	if len(p.Tenants) != 40 {
		t.Fatalf("tenants = %d, want 40", len(p.Tenants))
	}
	if p.NumApps() != 80 {
		t.Fatalf("apps = %d, want 80", p.NumApps())
	}
	perNode := map[int]int{}
	totalShare := 0.0
	for _, ts := range p.Tenants {
		if ts.Weight < 1 || ts.Weight > 8 {
			t.Fatalf("tenant weight %v outside [1,8]", ts.Weight)
		}
		for _, a := range ts.Apps {
			if a.Weight < 1 || a.Weight > 4 {
				t.Fatalf("app weight %v outside [1,4]", a.Weight)
			}
			if len(a.Nodes) != 3 {
				t.Fatalf("app on %d nodes, want 3 replicas", len(a.Nodes))
			}
			seen := map[int]bool{}
			for _, n := range a.Nodes {
				if n < 0 || n >= 8 {
					t.Fatalf("placement %d outside cluster", n)
				}
				if seen[n] {
					t.Fatalf("app %s placed twice on node %d", a.ID, n)
				}
				seen[n] = true
				perNode[n]++
			}
			totalShare += a.RateShare
		}
	}
	if math.Abs(totalShare-1) > 1e-9 {
		t.Fatalf("rate shares sum to %v, want 1", totalShare)
	}
	// Placement balance: 80 apps × 3 replicas over 8 nodes = 30 each.
	for n, c := range perNode {
		if c != 30 {
			t.Fatalf("node %d hosts %d app replicas, want 30", n, c)
		}
	}
}

func TestPopulationBind(t *testing.T) {
	p := Generate(PopulationConfig{Tenants: 10, AppsPerTenant: 2, Seed: 3, Nodes: 4})
	tree := shares.NewTree()
	if err := p.Bind(tree); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Tenants()); got != 10 {
		t.Fatalf("tree has %d tenants, want 10", got)
	}
	for _, ts := range p.Tenants {
		if w := tree.TenantWeight(ts.Name); math.Abs(w-ts.Weight) > 1e-12 {
			t.Fatalf("tenant %s weight %v, want %v", ts.Name, w, ts.Weight)
		}
		for _, a := range ts.Apps {
			if tree.TenantOf(a.ID) != ts.Name {
				t.Fatalf("app %s bound to %q, want %q", a.ID, tree.TenantOf(a.ID), ts.Name)
			}
			if w := tree.AppWeight(a.ID); math.Abs(w-a.Weight) > 1e-12 {
				t.Fatalf("app %s weight %v, want %v", a.ID, w, a.Weight)
			}
		}
	}
}

func TestPopulationArrivalRates(t *testing.T) {
	p := Generate(PopulationConfig{Tenants: 20, AppsPerTenant: 1, Seed: 9, Nodes: 5, LoadFactor: 1.4})
	total := 0.0
	for _, a := range p.Apps() {
		total += p.ArrivalRate(a, 100)
	}
	// Aggregate offered load = LoadFactor × nodes × nodeServiceRate.
	want := 1.4 * 5 * 100
	if math.Abs(total-want) > 1e-6 {
		t.Fatalf("aggregate arrival rate %v, want %v", total, want)
	}
}
