package scale

// Federated broker plane at scale: partition brokers on their own
// shards syncing delta-compressed service quanta through a root
// aggregator. The suite checks the three properties the federation
// claims: the fairness audit stays clean under the share-federated
// (staleness-widened) regime, the completion digest is bit-identical
// for every worker count, and the federation plane ships at least an
// order of magnitude fewer bytes per period than the centralized
// full-vector broker would for the same exchange traffic.

import (
	"testing"

	"ibis/internal/faults"
)

func fedConfig(workers, partitions int) Config {
	cfg := smokeConfig(workers)
	cfg.Coordinate = true
	cfg.Partitions = partitions
	return cfg
}

func TestFederationSmoke(t *testing.T) {
	rep, err := Run(fedConfig(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Submitted == 0 || st.Completed != st.Submitted {
		t.Fatalf("submitted=%d completed=%d", st.Submitted, st.Completed)
	}
	if rep.AuditErr != nil {
		t.Fatalf("audit: %v", rep.AuditErr)
	}
	if st.Partitions != 4 {
		t.Fatalf("partitions = %d, want 4", st.Partitions)
	}
	if st.FedSyncs == 0 || st.FedUpBytes == 0 || st.FedDownBytes == 0 {
		t.Fatalf("federation plane idle: %+v", st)
	}
	if st.FedSnapshots < uint64(st.Partitions) {
		t.Fatalf("fed-snapshots=%d: every partition's first uplink must be a snapshot", st.FedSnapshots)
	}
	if rep.AuditChecks["share-federated"] == 0 {
		t.Fatalf("share-federated regime never checked: %v", rep.AuditChecks)
	}
	if rep.AuditChecks["federation-conservation"] == 0 {
		t.Fatalf("federation-conservation never checked: %v", rep.AuditChecks)
	}
}

func TestFederationDeterministicAcrossWorkers(t *testing.T) {
	base, err := Run(fedConfig(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		rep, err := Run(fedConfig(w, 4))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != base.Stats.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x", w, rep.Stats.Digest, base.Stats.Digest)
		}
		if rep.Stats.FedSyncs != base.Stats.FedSyncs ||
			rep.Stats.FedUpBytes != base.Stats.FedUpBytes ||
			rep.Stats.FedDownBytes != base.Stats.FedDownBytes {
			t.Fatalf("workers=%d federation plane diverged: %+v vs %+v", w, rep.Stats, base.Stats)
		}
	}
}

// fedChaosConfig is the federated analog of chaosConfig: 200 nodes in 4
// partitions, one partition leader killed mid-run, plus 10% message
// loss on the client legs.
func fedChaosConfig(workers int) Config {
	spec := faults.Spec{
		Seed:          77,
		LeaderOutages: map[int][]faults.Window{1: {{Start: 3, End: 4.5}}},
		DropProb:      0.10,
		RespDropProb:  0.05,
		DelayProb:     0.25,
		DelayMin:      0.01,
		DelayMax:      0.1,
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
		Partitions:         4,
		Faults:             faults.New(spec),
		Audit:              true,
		AuditSampleEvery:   7,
		Workers:            workers,
	}
}

// TestFederationChaos kills partition 1's leader for 1.5 virtual
// seconds while 10% of client exchange messages drop. Clients of the
// dead partition must degrade to local SFQ(D) and recover (audited),
// the partition must resync by snapshot, and the whole run must stay
// digest-identical at 1, 4 and 8 workers.
func TestFederationChaos(t *testing.T) {
	base, err := Run(fedChaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st := base.Stats
	if st.Submitted == 0 || st.Completed != st.Submitted {
		t.Fatalf("submitted=%d completed=%d", st.Submitted, st.Completed)
	}
	if base.AuditErr != nil {
		t.Fatalf("audit under leader outage: %v (%d violations)", base.AuditErr, base.Violations)
	}
	// 4 initial snapshots plus at least one crash-recovery resync from
	// the killed leader.
	if st.FedSnapshots < 5 {
		t.Fatalf("fed-snapshots=%d: leader crash never forced a resync", st.FedSnapshots)
	}
	if base.AuditChecks["federation-conservation"] == 0 {
		t.Fatalf("federation-conservation never checked: %v", base.AuditChecks)
	}
	for _, w := range []int{4, 8} {
		rep, err := Run(fedChaosConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != st.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x under leader outage", w, rep.Stats.Digest, st.Digest)
		}
		if rep.AuditErr != nil {
			t.Fatalf("workers=%d audit under leader outage: %v", w, rep.AuditErr)
		}
	}
}

// fedGateConfig is the acceptance shape: 1000 hollow nodes, 10k
// tenants, 8 partition brokers.
func fedGateConfig(workers int) Config {
	return Config{
		Nodes:            1000,
		Tenants:          10000,
		AppsPerTenant:    1,
		Replicas:         3,
		Seed:             20260809,
		Horizon:          25,
		Coordinate:       true,
		Partitions:       8,
		Workers:          workers,
		Audit:            true,
		AuditSampleEvery: 100,
	}
}

// TestFederationGate is the federated acceptance run: 1000 nodes / 10k
// tenants / 8 partitions, audit-clean under share-federated,
// digest-identical at 1, 4 and 8 workers, and the federation plane's
// bytes on the wire at least 10× below the centralized full-vector
// baseline. Skipped under -short; CI runs it in the federation gate.
func TestFederationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("federation gate runs only in the full suite")
	}
	base, err := Run(fedGateConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st := base.Stats
	t.Logf("fed gate: submitted=%d peak-in-flight=%d fairness=%.3f syncs=%d fed-bytes=%d baseline=%d compression=%.1fx wall=%.1fs",
		st.Submitted, st.PeakInFlight, st.FairnessMaxRatio, st.FedSyncs,
		st.FedUpBytes+st.FedDownBytes, st.BaselineBytes, st.FedCompression(), st.WallSeconds)
	if base.AuditErr != nil {
		t.Fatalf("audit: %v (%d violations)", base.AuditErr, base.Violations)
	}
	if base.AuditChecks["share-federated"] == 0 {
		t.Fatalf("share-federated regime never checked: %v", base.AuditChecks)
	}
	if st.PeakInFlight < 1_000_000 {
		t.Fatalf("peak in flight %d < 1M: gate population too small", st.PeakInFlight)
	}
	if st.FairnessMaxRatio > 2 {
		t.Fatalf("fairness max ratio %.3f at scale", st.FairnessMaxRatio)
	}
	if c := st.FedCompression(); c < 10 {
		t.Fatalf("federation plane compression %.1fx < 10x (fed=%d bytes, baseline=%d bytes)",
			c, st.FedUpBytes+st.FedDownBytes, st.BaselineBytes)
	}
	// The delta stream stays O(changed entries), not O(apps).
	if st.FedSyncs == 0 {
		t.Fatal("federation plane never synced")
	}
	if per := float64(st.FedUpBytes+st.FedDownBytes) / float64(st.FedSyncs); per >= 64<<10 {
		t.Fatalf("%.0f bytes per sync >= 64 KiB", per)
	}
	for _, w := range []int{4, 8} {
		rep, err := Run(fedGateConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != st.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x", w, rep.Stats.Digest, st.Digest)
		}
	}
}
