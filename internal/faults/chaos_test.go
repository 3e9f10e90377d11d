package faults_test

// Chaos property tests: randomized seed-driven fault schedules run
// against a full coordinated cluster under invariant auditing. The
// properties under test are the degradation contract itself —
//
//  1. no schedule, however hostile to the coordination plane, may
//     produce a fault-aware invariant violation (local proportional
//     sharing holds in degraded windows, the cluster total-share bound
//     holds whenever it is in force), and
//  2. identical (seed, schedule) pairs produce identical runs: same
//     event count, same service totals, same health counters.
//
// These live in an external test package because they drive
// ibis/internal/cluster, which itself imports faults.

import (
	"fmt"
	"testing"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/sim"
)

// chaosOutcome is the comparable fingerprint of one chaos run.
type chaosOutcome struct {
	Fired          uint64
	Wide, Narrow   float64
	Health         metrics.CoordinationHealth
	Violations     uint64
	DegradedChecks uint64
	TotalChecks    uint64
}

const chaosHorizon = 40

// chaosRun executes the uneven-presence workload (wide w=3 on every
// node, narrow w=1 on the first quarter — weights chosen so the
// proportional target matches the physical optimum and the total-share
// bound is satisfiable when coordination is healthy) under the given
// fault schedule, with full auditing, on one engine.
func chaosRun(t *testing.T, spec faults.Spec, nodes int) chaosOutcome {
	t.Helper()
	return chaosRunOn(t, spec, nodes, false)
}

// chaosRunOn is chaosRun on one engine or, sharded, with every node on
// its own fabric shard (one worker).
func chaosRunOn(t *testing.T, spec faults.Spec, nodes int, sharded bool) chaosOutcome {
	t.Helper()
	cfg := cluster.Config{
		Nodes:              nodes,
		Policy:             cluster.SFQD,
		SFQDepth:           2,
		Coordinate:         true,
		CoordinationPeriod: 1,
		Faults:             faults.New(spec),
	}
	var cl *cluster.Cluster
	var err error
	if sharded {
		cl, err = cluster.NewSharded(cfg, 0, sim.FabricOptions{Workers: 1})
	} else {
		cl, err = cluster.New(sim.NewEngine(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	au := audit.New(audit.Options{CoordinationPeriod: 1}, cl.Shares())
	au.Attach(cl, 1)
	for _, b := range []struct {
		app iosched.AppID
		w   float64
	}{{"wide", 3}, {"narrow", 1}} {
		if err := cl.Shares().Bind(b.app, "", b.w); err != nil {
			t.Fatal(err)
		}
	}

	var wide, narrow float64
	backlog := func(n *cluster.Node, app iosched.AppID, served *float64) {
		eng := n.Shard().Engine()
		idx := cl.Shares().Index(app)
		var issue func()
		issue = func() {
			n.SubmitIO(&iosched.Request{
				AppIdx: idx, Class: iosched.PersistentRead, Size: 2e6,
				Done: iosched.DoneFunc(func(*iosched.Request, float64) {
					*served += 2e6
					if eng.Now() < chaosHorizon {
						issue()
					}
				}),
			})
		}
		for i := 0; i < 4; i++ {
			issue()
		}
	}
	quarter := nodes / 4
	if quarter < 1 {
		quarter = 1
	}
	for i, n := range cl.Nodes {
		backlog(n, "wide", &wide)
		if i < quarter {
			backlog(n, "narrow", &narrow)
		}
	}

	cl.RunUntil(chaosHorizon)
	au.Finish()

	if err := au.Err(); err != nil {
		t.Errorf("audit (seed %d): %v", spec.Seed, err)
	}
	checks := au.Checks()
	return chaosOutcome{
		Fired:          cl.Fired(),
		Wide:           wide,
		Narrow:         narrow,
		Health:         cl.CoordinationHealth(),
		Violations:     au.ViolationCount(),
		DegradedChecks: checks["proportional-share-degraded"],
		TotalChecks:    checks["total-proportional-share"],
	}
}

// chaosSpec derives a mixed randomized fault schedule from a seed:
// generated outages, partitions, restarts and device degradation plus
// message loss and delay, all landing inside the run.
func chaosSpec(seed int64, nodes int) faults.Spec {
	ids := faults.ClientIDs(nodes)
	return faults.Spec{
		Seed: seed,
		// Faults start by t=20 and (at mean duration 4, max 6) end by
		// t=26; the K=5-period recovery grace then expires inside the
		// 40 s run, so the total-share check always re-engages.
		Horizon:          chaosHorizon / 2,
		OutageCount:      1,
		OutageMeanDur:    4,
		PartitionCount:   2,
		PartitionMeanDur: 4,
		PartitionTargets: ids,
		RestartCount:     2,
		RestartTargets:   ids,
		DegradeCount:     1,
		DegradeMeanDur:   4,
		DegradeTargets:   []string{"node0-hdfs", "node1-hdfs"},
		DropProb:         0.15,
		RespDropProb:     0.1,
		DelayProb:        0.3,
		DelayMax:         0.2,
	}
}

// TestChaosRandomSchedulesAuditClean is the main chaos property: across
// a spread of seeds, every randomized schedule must leave the run
// audit-clean and every degradation must eventually recover.
func TestChaosRandomSchedulesAuditClean(t *testing.T) {
	const nodes = 8
	for seed := int64(1); seed <= 6; seed++ {
		out := chaosRun(t, chaosSpec(seed, nodes), nodes)
		if out.Violations != 0 {
			t.Errorf("seed %d: %d fault-aware invariant violations, want 0", seed, out.Violations)
		}
		if out.TotalChecks == 0 {
			t.Errorf("seed %d: cluster total-share check never engaged", seed)
		}
		if out.Narrow <= 0 || out.Wide <= 0 {
			t.Errorf("seed %d: starved workload (wide=%v narrow=%v)", seed, out.Wide, out.Narrow)
		}
		// Every client that degraded must have come back: the schedule's
		// horizon ends well before the run does.
		if out.Health.Degradations != out.Health.Recoveries {
			t.Errorf("seed %d: %d degradations but %d recoveries",
				seed, out.Health.Degradations, out.Health.Recoveries)
		}
		// The schedules always contain an outage or partition, so some
		// failure handling must actually have been exercised.
		if out.Health.Failures == 0 {
			t.Errorf("seed %d: schedule exercised no failures", seed)
		}
	}
}

// TestChaosDeterminism re-runs identical (seed, schedule) pairs and
// demands identical traces: same fired-event count, same service
// totals, same health counters, same audit evaluation counts.
func TestChaosDeterminism(t *testing.T) {
	const nodes = 8
	for _, seed := range []int64{3, 17} {
		spec := chaosSpec(seed, nodes)
		a := chaosRun(t, spec, nodes)
		b := chaosRun(t, spec, nodes)
		if a != b {
			t.Errorf("seed %d: non-deterministic chaos run\n a=%+v\n b=%+v", seed, a, b)
		}
	}
}

// TestChaosSeedSensitivity guards against the degenerate opposite of
// determinism: different seeds must actually produce different runs
// (otherwise the injector is ignoring its seed).
func TestChaosSeedSensitivity(t *testing.T) {
	const nodes = 4
	a := chaosRun(t, chaosSpec(21, nodes), nodes)
	b := chaosRun(t, chaosSpec(22, nodes), nodes)
	if a == b {
		t.Error("seeds 21 and 22 produced identical runs; injector seed has no effect")
	}
}

// TestChaosGolden pins the full outcome of one chaos run — event count,
// service totals, health counters and audit tallies — so a change to
// how the auditor is attached to the cluster (the broker, every
// scheduler, the degrade notes) moves it.
func TestChaosGolden(t *testing.T) {
	out := chaosRun(t, chaosSpec(3, 8), 8)
	got := fmt.Sprintf("%+v degraded-time=%v", out, out.Health.DegradedTime)
	if want := "{Fired:8711 Wide:2.4184e+10 Narrow:5.716e+09 Health:attempts=1066 ok=564 fail=496 timeout=0 retries=424 skipped=72 stale=0 degraded=18 recovered=18 degraded-time=57.3s restarts=2 reregisters=2 Violations:0 DegradedChecks:0 TotalChecks:3} degraded-time=57.31871709442447"; got != want {
		t.Errorf("outcome:\n%s\nwant:\n%s", got, want)
	}
}

// TestChaosLateResponseGolden pins the late-response regime: half of
// all responses are delayed by up to 0.6 s, past the 0.25 s timeout,
// while a dozen restarts obsolete attempts in flight. The pin holds
// everything the client's choices feed into — service totals, attempt
// outcomes, degradation history, restarts and audit tallies — and the
// run must actually have timed out and dropped late responses.
// Timeouts, stale drops and the fired-event count are left unpinned:
// they depend on how a late response is booked against a restart in
// between, not on the coordination the cluster received.
func TestChaosLateResponseGolden(t *testing.T) {
	want := []string{
		"{Fired:0 Wide:2.4508e+10 Narrow:5.464e+09 Health:attempts=1331 ok=509 fail=804 timeout=0 retries=687 skipped=131 stale=0 degraded=37 recovered=37 degraded-time=91.1s restarts=12 reregisters=12 Violations:0 DegradedChecks:0 TotalChecks:0} degraded-time=91.09450335818546",
		"{Fired:0 Wide:2.3888e+10 Narrow:5.892e+09 Health:attempts=1296 ok=540 fail=738 timeout=0 retries=651 skipped=101 stale=0 degraded=41 recovered=41 degraded-time=57.6s restarts=12 reregisters=12 Violations:0 DegradedChecks:0 TotalChecks:0} degraded-time=57.59406300841117",
		"{Fired:0 Wide:2.4606e+10 Narrow:5.314e+09 Health:attempts=1295 ok=505 fail=770 timeout=0 retries=657 skipped=132 stale=0 degraded=39 recovered=39 degraded-time=81.9s restarts=12 reregisters=12 Violations:0 DegradedChecks:1 TotalChecks:1} degraded-time=81.87742013630248",
		"{Fired:0 Wide:2.443e+10 Narrow:5.602e+09 Health:attempts=1275 ok=549 fail=708 timeout=0 retries=634 skipped=93 stale=0 degraded=40 recovered=40 degraded-time=48.6s restarts=12 reregisters=12 Violations:0 DegradedChecks:0 TotalChecks:0} degraded-time=48.58863549573177",
		"{Fired:0 Wide:2.4506e+10 Narrow:5.318e+09 Health:attempts=1289 ok=534 fail=736 timeout=0 retries=649 skipped=104 stale=0 degraded=33 recovered=33 degraded-time=67.6s restarts=12 reregisters=12 Violations:0 DegradedChecks:0 TotalChecks:0} degraded-time=67.63377068373835",
	}
	for i, w := range want {
		seed := int64(i + 1)
		spec := chaosSpec(seed, 8)
		spec.DelayProb = 0.5
		spec.DelayMax = 0.6
		spec.RestartCount = 12
		out := chaosRun(t, spec, 8)
		if out.Health.Timeouts == 0 || out.Health.StaleDrops == 0 {
			t.Errorf("seed %d: timeouts=%d stale=%d, want both > 0: no response outlived its timeout",
				seed, out.Health.Timeouts, out.Health.StaleDrops)
		}
		out.Fired, out.Health.Timeouts, out.Health.StaleDrops = 0, 0, 0
		got := fmt.Sprintf("%+v degraded-time=%v", out, out.Health.DegradedTime)
		if got != w {
			t.Errorf("seed %d outcome:\n%s\nwant:\n%s", seed, got, w)
		}
	}
}

// TestChaosLeaderOutageReachesLoneBroker: partition 0's leader outage
// takes the lone broker of a one-partition plane down, on one engine
// and sharded alike. Every client must degrade and come back after the
// broker's crash recovery, with the audit clean and the total-share
// check engaged once the grace expires.
func TestChaosLeaderOutageReachesLoneBroker(t *testing.T) {
	const nodes = 8
	spec := faults.Spec{LeaderOutages: map[int][]faults.Window{0: {{Start: 10, End: 15}}}}
	for _, sharded := range []bool{false, true} {
		out := chaosRunOn(t, spec, nodes, sharded)
		t.Logf("sharded=%v: %+v", sharded, out)
		if out.Health.Degradations == 0 {
			t.Errorf("sharded=%v: no client degraded during the leader outage", sharded)
		}
		if out.Health.Degradations != out.Health.Recoveries {
			t.Errorf("sharded=%v: %d degradations but %d recoveries",
				sharded, out.Health.Degradations, out.Health.Recoveries)
		}
		if out.Violations != 0 {
			t.Errorf("sharded=%v: %d audit violations, want 0", sharded, out.Violations)
		}
		if out.TotalChecks == 0 {
			t.Errorf("sharded=%v: cluster total-share check never engaged", sharded)
		}
	}
}
