package scale

// Chaos-at-scale: a 200-node hollow cluster coordinating through
// broker.AsyncTransport while the fault injector runs a full broker
// outage, partitions individual clients, and drops/delays exchange
// messages. The run must stay audit-clean (the degrade observer marks
// the graceful fallback to local fairness during disconnection) and —
// because every per-message fault roll is a pure function of
// (client id, seq) — the completion digest must be bit-identical
// whether the fabric runs on 1, 4, or 8 workers.

import (
	"testing"

	"ibis/internal/faults"
)

func chaosConfig(workers int) Config {
	spec := faults.Spec{
		Seed:    99,
		Outages: []faults.Window{{Start: 3, End: 4.5}},
		Partitions: map[string][]faults.Window{
			"node7-hdfs":   {{Start: 5.5, End: 7}},
			"node42-hdfs":  {{Start: 5.5, End: 7}},
			"node133-hdfs": {{Start: 2, End: 8}},
		},
		DropProb:     0.10,
		RespDropProb: 0.05,
		DelayProb:    0.25,
		DelayMin:     0.01,
		DelayMax:     0.1,
	}
	return Config{
		Nodes:              200,
		Tenants:            400,
		AppsPerTenant:      1,
		Replicas:           3,
		Seed:               4242,
		Horizon:            10,
		Coordinate:         true,
		CoordinationPeriod: 0.5,
		Faults:             faults.New(spec),
		Audit:              true,
		AuditSampleEvery:   7,
		Workers:            workers,
	}
}

func TestScaleChaos(t *testing.T) {
	base, err := Run(chaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st := base.Stats
	if st.Submitted == 0 || st.Completed != st.Submitted {
		t.Fatalf("submitted=%d completed=%d", st.Submitted, st.Completed)
	}
	if base.AuditErr != nil {
		t.Fatalf("audit under faults: %v (%d violations)", base.AuditErr, base.Violations)
	}
	// The centralized broker on the fabric under message loss: pin the
	// digest and every audit tally of the serial run.
	if got, want := scaleOutcome(base), `digest 20c6f13e18fc9081 violations=0
broker-conservation=14779
degrade-noted=37
depth-bound=37596
lifecycle=112788
recover-noted=37
start-tag-monotonicity=37596
tag-consistency=37596
total-proportional-share-skipped=5
vtime-monotonicity=37596
work-conservation=37596`; got != want {
		t.Errorf("outcome:\n%s\nwant:\n%s", got, want)
	}
	for _, w := range []int{4, 8} {
		rep, err := Run(chaosConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != st.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x under faults", w, rep.Stats.Digest, st.Digest)
		}
		if rep.AuditErr != nil {
			t.Fatalf("workers=%d audit under faults: %v", w, rep.AuditErr)
		}
	}
}
