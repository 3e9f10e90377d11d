package ibis_test

import (
	"reflect"
	"testing"

	"ibis"
)

// contend runs the standard two-app contention scenario (a light
// weight-32 WordCount against a write-flooding weight-1 TeraGen) under
// cfg and returns the finished simulation.
func contend(t *testing.T, cfg ibis.Config) *ibis.Simulation {
	t.Helper()
	sim, err := ibis.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wc := ibis.WordCount(1.5e9, 2)
	wc.App = "wordcount"
	wc.Weight = 32
	wc.CPUQuota = 48
	tg := ibis.TeraGen(6e9, 24)
	tg.App = "teragen"
	tg.Weight = 1
	tg.CPUQuota = 48
	tg.OutputReplication = 1
	if _, err := sim.Submit(wc, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Submit(tg, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return sim
}

// TestAuditCleanOnAllPolicies is the acceptance gate for the invariant
// auditor: every shipping policy must run the contention scenario with
// zero violations, and the SFQ-specific invariants must actually be
// exercised (non-zero check counts) where the policy uses SFQ queues.
func TestAuditCleanOnAllPolicies(t *testing.T) {
	cases := []struct {
		name string
		cfg  ibis.Config
		// sfq marks configs whose schedulers include SFQ queues, so the
		// tag/depth/conservation invariants must have been evaluated.
		sfq bool
	}{
		{"Native", ibis.Config{Policy: ibis.Native, Seed: 1}, false},
		{"SFQD", ibis.Config{Policy: ibis.SFQD, Seed: 2}, true},
		{"SFQD2", ibis.Config{Policy: ibis.SFQD2, Seed: 3}, true},
		{"SFQD2+Coordinate", ibis.Config{Policy: ibis.SFQD2, Coordinate: true, Seed: 4}, true},
		{"CGWeight", ibis.Config{Policy: ibis.CGWeight, Seed: 5}, true},
		{"CGThrottle", ibis.Config{
			Policy:         ibis.CGThrottle,
			ThrottleLimits: map[ibis.AppID]float64{"teragen": 50e6},
			Seed:           6,
		}, false},
		{"Reserve", ibis.Config{Policy: ibis.Reserve, ReservationDefault: 50e6, Seed: 7}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Audit = true
			sim := contend(t, cfg)
			au := sim.Audit()
			if au == nil {
				t.Fatal("Audit() = nil with Config.Audit set")
			}
			if err := au.Err(); err != nil {
				for _, v := range au.Violations() {
					t.Logf("violation: %s", v)
				}
				t.Fatalf("audit: %v", err)
			}
			checks := au.Checks()
			if checks["lifecycle"] == 0 {
				t.Fatal("lifecycle invariant never evaluated")
			}
			if tc.sfq {
				for _, inv := range []string{
					"start-tag-monotonicity", "tag-consistency",
					"vtime-monotonicity", "depth-bound", "work-conservation",
				} {
					if checks[inv] == 0 {
						t.Errorf("SFQ invariant %q never evaluated (checks: %v)", inv, checks)
					}
				}
			}
			if tc.cfg.Coordinate && checks["broker-conservation"] == 0 {
				t.Error("broker-conservation never evaluated with coordination on")
			}
		})
	}
}

// shareScenario floods the DFS from two replicated TeraGens with a 32:1
// weight ratio: 3× replication spreads the write pipelines across all
// datanodes, so both flows stay continuously backlogged on shared
// devices and the windowed share checks have eligible pairs.
func shareScenario(t *testing.T, cfg ibis.Config) *ibis.Simulation {
	t.Helper()
	sim := shareSubmitted(t, cfg)
	sim.Run()
	return sim
}

// shareSubmitted builds shareScenario's simulation with both jobs
// submitted, not yet run.
func shareSubmitted(t *testing.T, cfg ibis.Config) *ibis.Simulation {
	t.Helper()
	sim, err := ibis.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := ibis.TeraGen(8e9, 48)
	a.App = "gen-a"
	a.Weight = 32
	a.CPUQuota = 48
	b := ibis.TeraGen(8e9, 48)
	b.App = "gen-b"
	b.Weight = 1
	b.CPUQuota = 48
	if _, err := sim.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Submit(b, 0); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestAuditSplitRunMatchesSingleRun pins that RunUntil leaves the audit
// windows open: a run split at odd instants (mid-window, window
// boundaries excluded) and finished by Run reports exactly the check
// tallies and violations of one Run. Closing the windows at each split
// would check a window twice and drop the empty-queue time accrued
// before the split.
func TestAuditSplitRunMatchesSingleRun(t *testing.T) {
	cfg := ibis.Config{Policy: ibis.SFQD, Seed: 21, Audit: true}
	whole := shareScenario(t, cfg)
	split := shareSubmitted(t, cfg)
	for _, at := range []float64{12.5, 27.5, 41.3, 58.9, 73.1} {
		split.RunUntil(at)
	}
	if end, want := split.Run(), whole.Now(); end != want {
		t.Fatalf("split run ended at %v, single run at %v", end, want)
	}
	want, got := whole.Audit(), split.Audit()
	if want.Checks()["proportional-share"] == 0 {
		t.Fatalf("no proportional-share checks: the split is untested (checks: %v)", want.Checks())
	}
	if !reflect.DeepEqual(got.Checks(), want.Checks()) {
		t.Fatalf("check tallies differ:\n  split  %v\n  single %v", got.Checks(), want.Checks())
	}
	if !reflect.DeepEqual(got.Violations(), want.Violations()) {
		t.Fatalf("violations differ:\n  split  %v\n  single %v", got.Violations(), want.Violations())
	}
}

// TestAuditProportionalShareExercised pins the non-vacuousness of the
// windowed fairness check: under contention with overlapping backlogged
// flows it must evaluate real pairs and find the shares within bound.
func TestAuditProportionalShareExercised(t *testing.T) {
	sim := shareScenario(t, ibis.Config{Policy: ibis.SFQD, Seed: 21, Audit: true})
	au := sim.Audit()
	if err := au.Err(); err != nil {
		for _, v := range au.Violations() {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("audit: %v", err)
	}
	if n := au.Checks()["proportional-share"]; n == 0 {
		t.Fatalf("proportional-share never evaluated (checks: %v)", au.Checks())
	}
}

// TestAuditTotalShareExercised is the coordinated analog: with the
// Scheduling Broker on, the cluster-wide total-service fairness check
// and broker conservation must both run clean on real pairs.
func TestAuditTotalShareExercised(t *testing.T) {
	sim := shareScenario(t, ibis.Config{Policy: ibis.SFQD2, Coordinate: true, Seed: 21, Audit: true})
	au := sim.Audit()
	if err := au.Err(); err != nil {
		for _, v := range au.Violations() {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("audit: %v", err)
	}
	checks := au.Checks()
	if checks["total-proportional-share"] == 0 {
		t.Fatalf("total-proportional-share never evaluated (checks: %v)", checks)
	}
	if checks["broker-conservation"] == 0 {
		t.Fatalf("broker-conservation never evaluated (checks: %v)", checks)
	}
}
