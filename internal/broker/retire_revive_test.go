package broker

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
)

// TestReviveRestoresExactContinuity pins the Revive snapshot fix: a
// revived app must resume with its full pre-retirement total and
// per-scheduler report baselines, so the next exchange applies only the
// true delta accrued since retirement.
func TestReviveRestoresExactContinuity(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100}))
	b.Exchange("n2", costs(map[iosched.AppID]float64{"A": 50}))
	b.Retire("A")
	if got := b.Total("A"); got != 150 {
		t.Fatalf("tombstone total = %v, want 150", got)
	}
	b.Revive("A")
	// The regression: Revive used to only clear the retired flag, so the
	// total was 0 here and the next exchange re-added n1's FULL
	// cumulative (100) instead of its delta.
	if got := b.Total("A"); got != 150 {
		t.Fatalf("revived total = %v, want 150 (exact continuity)", got)
	}
	resp := b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 120}))
	if got := resp.Tenants["~A"]; got != 170 {
		t.Fatalf("post-revive exchange total = %v, want 170 (150 + delta 20)", got)
	}
}

// TestReviveThenUnregisterNeverSurfacesTombstone pins the second half
// of the bug: after Revive, unregistering every backing scheduler must
// leave Total at zero — not resurrect the stale tombstone through the
// finals fallback.
func TestReviveThenUnregisterNeverSurfacesTombstone(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100}))
	b.Exchange("n2", costs(map[iosched.AppID]float64{"A": 50}))
	b.Retire("A")
	b.Revive("A")
	b.Unregister("n1")
	b.Unregister("n2")
	if got := b.Total("A"); got != 0 {
		t.Fatalf("total after revive + full unregister = %v, want 0 (no tombstone leak)", got)
	}
}

// TestReviveDropsEntriesOfDepartedSchedulers: a scheduler that
// unregistered while the app was retired must not be resurrected by
// Revive — its service left the cluster with it.
func TestReviveDropsEntriesOfDepartedSchedulers(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100}))
	b.Exchange("n2", costs(map[iosched.AppID]float64{"A": 50}))
	b.Retire("A")
	b.Unregister("n2")
	b.Revive("A")
	if got := b.Total("A"); got != 100 {
		t.Fatalf("revived total = %v, want 100 (n2's 50 departed)", got)
	}
	resp := b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 110}))
	if got := resp.Tenants["~A"]; got != 110 {
		t.Fatalf("post-revive total = %v, want 110", got)
	}
}

// TestRetireReviveIdempotence: double Retire keeps the first tombstone;
// Revive of a live app is a no-op.
func TestRetireReviveIdempotence(t *testing.T) {
	b := New()
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 100}))
	b.Retire("A")
	b.Exchange("n1", costs(map[iosched.AppID]float64{"A": 999})) // skipped while retired
	b.Retire("A")
	if got := b.Total("A"); got != 100 {
		t.Fatalf("double-retire tombstone = %v, want 100", got)
	}
	b.Revive("A")
	b.Revive("A")
	if got := b.Total("A"); got != 100 {
		t.Fatalf("double-revive total = %v, want 100", got)
	}
}

// reportedTotals sums the latest per-scheduler reports per app.
func reportedTotals(b *Broker) map[iosched.AppID]float64 {
	sums := map[iosched.AppID]float64{}
	for _, r := range b.registered {
		for _, c := range r.cums {
			sums[b.view.AppName(c.ai)] += c.cum
		}
	}
	return sums
}

// conservationCheck asserts the broker's core invariant: for every
// non-retired app the incrementally maintained total equals the sum of
// the latest per-scheduler reports.
func conservationCheck(t *testing.T, b *Broker, step string) {
	t.Helper()
	sums := reportedTotals(b)
	for _, app := range b.Apps() {
		if b.Retired(app) {
			continue
		}
		got, want := b.Total(app), sums[app]
		if diff := math.Abs(got - want); diff > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: app %s total %v != reported sum %v", step, app, got, want)
		}
		if got < 0 {
			t.Fatalf("%s: app %s total %v negative", step, app, got)
		}
	}
}

// exactRollup regroups the latest per-scheduler reports by tenant. The
// costs are integers, so it is exact and the broker's tenant totals
// must equal it, not merely approximate it.
func exactRollup(b *Broker, tree *shares.Tree) map[string]float64 {
	out := map[string]float64{}
	for app, v := range reportedTotals(b) {
		out[tree.TenantOf(app)] += v
	}
	return out
}

// rollupCheck asserts that the tenant totals equal the exact regroup
// (a missing tenant counts as zero service).
func rollupCheck(t *testing.T, step, what string, got, want map[string]float64) {
	t.Helper()
	for tn, v := range got {
		if want[tn] != v {
			t.Fatalf("%s: %s tenant %s = %v, want %v", step, what, tn, v, want[tn])
		}
	}
	for tn, v := range want {
		if got[tn] != v {
			t.Fatalf("%s: %s tenant %s = %v, want %v", step, what, tn, got[tn], v)
		}
	}
}

// TestRetireReviveUnregisterInterleavings drives seeded random
// interleavings of the full scheduler/app lifecycle — monotone
// cumulative exchanges, retire, revive, unregister, broker restart,
// rebinding an app to another tenant — and asserts conservation,
// tombstone stability and an exact tenant rollup after every
// operation. Odd seeds put all three apps in one tenant; even seeds
// put A and B in one and leave C implicit.
func TestRetireReviveUnregisterInterleavings(t *testing.T) {
	apps := []iosched.AppID{"A", "B", "C"}
	scheds := []string{"s1", "s2", "s3"}
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := seed * 0x9e3779b97f4a7c15
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			tree := shares.NewTree()
			grouped := apps[:2]
			if seed%2 == 1 {
				grouped = apps
			}
			for _, a := range grouped {
				if err := tree.Bind(a, "T", 1); err != nil {
					t.Fatal(err)
				}
			}
			b := NewPartition(0, tree, 0).Broker()
			// cum[sched][app] is the model's monotone local accounting —
			// it never forgets, exactly like scheduler accounting.
			cum := map[string]map[iosched.AppID]float64{}
			for _, s := range scheds {
				cum[s] = map[iosched.AppID]float64{}
			}
			live := map[string]bool{}
			tombstone := map[iosched.AppID]float64{}
			for op := 0; op < 400; op++ {
				step := fmt.Sprintf("seed %d op %d", seed, op)
				switch next(11) {
				case 0, 1, 2, 3, 4, 5: // exchange: the common case
					s := scheds[next(len(scheds))]
					for _, a := range apps {
						if next(3) > 0 {
							cum[s][a] += float64(next(100))
						}
					}
					vec := make(map[iosched.AppID]float64, len(cum[s]))
					for a, v := range cum[s] {
						vec[a] = v
					}
					resp := b.Exchange(s, costs(vec))
					live[s] = true
					want := exactRollup(b, tree)
					for tn := range want {
						if _, ok := resp.Tenants[tn]; !ok {
							delete(want, tn)
						}
					}
					rollupCheck(t, step, "response", resp.Tenants, want)
				case 6: // retire
					a := apps[next(len(apps))]
					if !b.Retired(a) {
						b.Retire(a)
						tombstone[a] = b.Total(a)
					}
				case 7: // revive
					a := apps[next(len(apps))]
					b.Revive(a)
					delete(tombstone, a)
				case 8: // unregister
					s := scheds[next(len(scheds))]
					b.Unregister(s)
					delete(live, s)
					// The model forgets with the broker: a re-registering
					// scheduler is a new process reporting from zero.
					cum[s] = map[iosched.AppID]float64{}
				case 9: // broker restart
					b.ResetReports()
					// Live report vectors rebuild on the next exchange of
					// each scheduler; until then conservation holds
					// vacuously (both sides empty). Tombstones survive.
					for s := range live {
						delete(live, s)
						cum[s] = map[iosched.AppID]float64{}
					}
				case 10: // rebind: move an app to another tenant
					a := apps[next(len(apps))]
					to := []string{"T", "U", ""}[next(3)]
					if err := tree.Bind(a, to, 1); err != nil {
						t.Fatal(err)
					}
				}
				conservationCheck(t, b, step)
				if err := b.CheckRollup(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				rollupCheck(t, step, "rollup", b.TenantTotals(), exactRollup(b, tree))
				for a, want := range tombstone {
					if !b.Retired(a) {
						t.Fatalf("%s: app %s lost retired flag", step, a)
					}
					if got := b.Total(a); got != want {
						t.Fatalf("%s: retired app %s total drifted %v -> %v", step, a, want, got)
					}
				}
				// Registered-scheduler view must stay sorted and
				// consistent with the model's live set minus restarts.
				got := b.Schedulers()
				if !sort.StringsAreSorted(got) {
					t.Fatalf("%s: schedulers unsorted: %v", step, got)
				}
			}
		})
	}
}
