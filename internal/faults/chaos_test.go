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
// fault schedule, with full auditing.
func chaosRun(t *testing.T, spec faults.Spec, nodes int) chaosOutcome {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              nodes,
		Policy:             cluster.SFQD,
		SFQDepth:           2,
		Coordinate:         true,
		CoordinationPeriod: 1,
		Faults:             faults.New(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	au := audit.New(audit.Options{CoordinationPeriod: 1})
	au.AttachBroker(cl.CoordShard().ID(), cl.Broker)
	cl.Instrument(func(shard, node int, dev string, sched iosched.Scheduler) iosched.Probe {
		return au.Probe(shard, node, dev, sched)
	})
	cl.SetDegradeObserver(au.NoteDegradeStart, au.NoteDegradeEnd)

	var wide, narrow float64
	backlog := func(n *cluster.Node, app iosched.AppID, weight float64, served *float64) {
		var issue func()
		issue = func() {
			n.SubmitIO(&iosched.Request{
				App: app, Shares: iosched.FixedWeight(weight), Class: iosched.PersistentRead, Size: 2e6,
				OnDone: func(float64) {
					*served += 2e6
					if eng.Now() < chaosHorizon {
						issue()
					}
				},
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
		backlog(n, "wide", 3, &wide)
		if i < quarter {
			backlog(n, "narrow", 1, &narrow)
		}
	}

	eng.RunUntil(chaosHorizon)
	au.Finish()

	if err := au.Err(); err != nil {
		t.Errorf("audit (seed %d): %v", spec.Seed, err)
	}
	checks := au.Checks()
	return chaosOutcome{
		Fired:          eng.Fired(),
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
