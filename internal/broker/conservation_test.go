package broker

import (
	"strings"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
)

// conservedRoot builds a 3-partition root from real uplinks: two
// tenants, one of them spread over two partitions, and an app on
// partition 2 alone, so every book the check compares is populated.
func conservedRoot(t *testing.T) (*Aggregator, *shares.Tree, []*Partition) {
	t.Helper()
	tree := shares.NewTree()
	for _, b := range []struct {
		app    iosched.AppID
		tenant string
	}{{"a1", "T1"}, {"a2", "T1"}, {"b1", "T2"}, {"ghost", "T2"}, {"nobody", ""}} {
		if err := tree.Bind(b.app, b.tenant, 1); err != nil {
			t.Fatal(err)
		}
	}
	ag := NewAggregator(tree)
	q := DefaultQuantum
	vectors := []map[iosched.AppID]float64{
		{"a1": 10 * q, "b1": 3 * q},
		{"a1": 5 * q, "a2": 7 * q},
		{"b1": 11 * q, "a2": 2 * q},
	}
	parts := make([]*Partition, len(vectors))
	for i := range parts {
		parts[i] = NewPartition(i, tree, 0)
	}
	for round := 1; round <= 2; round++ {
		for i, vec := range vectors {
			p := parts[i]
			if _, err := p.Exchange("n", costs(vec), float64(round)); err != nil {
				t.Fatal(err)
			}
			msg, _, ok := p.BuildUplink(float64(round))
			if !ok {
				t.Fatal("uplink suppressed")
			}
			if _, err := ag.HandleUplink(i, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ag.CheckConservation(); err != nil {
		t.Fatalf("clean books: %v", err)
	}
	return ag, tree, parts
}

// TestConservationCatchesEachBreach corrupts, one at a time, each book
// the root keeps. Every corruption must fail CheckConservation with an
// error naming the equality it broke: partition mirrors against the
// global app totals, app totals regrouped by tenant against the global
// tenant totals, and one partition's mirror regrouped by tenant
// against the tenant totals it hosts. The ghost cases put a value
// where the other side holds none, which only a check run in both
// directions catches.
func TestConservationCatchesEachBreach(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(ag *Aggregator, tree *shares.Tree)
		want    string
	}{
		{"mirror entry", func(ag *Aggregator, tree *shares.Tree) { corruptMirror(ag, tree, 1, "a2", 1) }, "mirrors sum"},
		{"global app total", func(ag *Aggregator, tree *shares.Tree) { corruptGlobalApp(ag, tree, "b1", -1) }, "mirrors sum"},
		{"global app total of an unmirrored app", func(ag *Aggregator, tree *shares.Tree) { corruptGlobalApp(ag, tree, "ghost", 1) }, "mirrors sum"},
		{"global tenant total", func(ag *Aggregator, tree *shares.Tree) { corruptGlobalTenant(ag, tree, "T1", 1) }, "regrouped"},
		{"global tenant total of an empty tenant", func(ag *Aggregator, tree *shares.Tree) { corruptGlobalTenant(ag, tree, "~nobody", 2) }, "regrouped"},
		{"hosted tenant total", func(ag *Aggregator, tree *shares.Tree) { corruptHosted(ag, tree, 2, "T2", 1) }, "hosted"},
		{"hosted tenant the partition does not host", func(ag *Aggregator, tree *shares.Tree) { corruptHosted(ag, tree, 0, "~nobody", 3) }, "hosted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ag, tree, _ := conservedRoot(t)
			tc.corrupt(ag, tree)
			err := ag.CheckConservation()
			if err == nil {
				t.Fatal("corrupted books passed the conservation check")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the broken equality (%q)", err, tc.want)
			}
		})
	}
}

// TestConservationHoldsAcrossRebind: moving an app to another tenant
// moves the tree's epoch, and the root must regroup its tenant books
// before the next uplink folds in, or the regrouped and global tenant
// totals part.
func TestConservationHoldsAcrossRebind(t *testing.T) {
	ag, tree, parts := conservedRoot(t)
	t1, t2 := ag.TenantQuanta("T1"), ag.TenantQuanta("T2")
	a2 := ag.TotalQuanta("a2")
	if err := tree.Bind("a2", "T2", 1); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		msg, _, _ := p.BuildUplink(3)
		if _, err := ag.HandleUplink(i, msg); err != nil {
			t.Fatal(err)
		}
		if err := ag.CheckConservation(); err != nil {
			t.Fatalf("after partition %d's uplink: %v", i, err)
		}
	}
	if got := ag.TenantQuanta("T1"); got != t1-a2 {
		t.Errorf("T1 = %d quanta, want %d once a2 left it", got, t1-a2)
	}
	if got := ag.TenantQuanta("T2"); got != t2+a2 {
		t.Errorf("T2 = %d quanta, want %d once a2 joined it", got, t2+a2)
	}
}

// The corrupt* helpers add d to one entry of the root's books.

func corruptMirror(ag *Aggregator, _ *shares.Tree, p int, app iosched.AppID, d int64) {
	dec := &ag.parts[p].dec
	for i, name := range dec.names {
		if name == string(app) {
			dec.prev[i] += d
		}
	}
}

func corruptGlobalApp(ag *Aggregator, tree *shares.Tree, app iosched.AppID, d int64) {
	*slot(&ag.globalApp, int(tree.Index(app, iosched.NoApp))) += d
}

func corruptGlobalTenant(ag *Aggregator, tree *shares.Tree, tenant string, d int64) {
	*slot(&ag.globalTenant, int(tree.TenantIndex(tenant))) += d
}

func corruptHosted(ag *Aggregator, tree *shares.Tree, p int, tenant string, d int64) {
	*slot(&ag.parts[p].tenantQ, int(tree.TenantIndex(tenant))) += d
}
