package scale

import (
	"math"
	"testing"

	"ibis/internal/cluster"
)

// smokeConfig is a small hollow population that still exercises every
// harness path: multi-replica placement, coordination, audit.
func smokeConfig(workers int) Config {
	return Config{
		Nodes:         8,
		Tenants:       24,
		AppsPerTenant: 2,
		Replicas:      3,
		Seed:          42,
		Horizon:       6,
		Workers:       workers,
		Audit:         true,
	}
}

func TestScaleSmoke(t *testing.T) {
	rep, err := Run(smokeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Submitted == 0 || st.Completed != st.Submitted {
		t.Fatalf("submitted=%d completed=%d", st.Submitted, st.Completed)
	}
	if st.PeakInFlight <= 0 {
		t.Fatalf("peak in flight = %d", st.PeakInFlight)
	}
	if rep.AuditErr != nil {
		t.Fatalf("audit: %v", rep.AuditErr)
	}
	if st.Events == 0 {
		t.Fatal("no events fired")
	}
}

func TestScaleFairness(t *testing.T) {
	// A population with few flows per node, each well above the
	// fairness-floor service, so the proportionality ratio is measured
	// rather than vacuous: every included flow's half-window service
	// dwarfs the SFQ(D) fairness bound.
	rep, err := Run(Config{
		Nodes:         8,
		Tenants:       12,
		AppsPerTenant: 1,
		Replicas:      3,
		Seed:          7,
		Horizon:       16,
		Workers:       2,
		Audit:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if rep.AuditErr != nil {
		t.Fatalf("audit: %v", rep.AuditErr)
	}
	if st.FairnessMaxRatio <= 1 {
		t.Fatalf("fairness ratio %.3f: no flow pair qualified, metric is vacuous", st.FairnessMaxRatio)
	}
	if st.FairnessMaxRatio > 2 {
		t.Fatalf("fairness max ratio %.3f too far from proportional", st.FairnessMaxRatio)
	}
}

func TestScaleDeterministicAcrossWorkers(t *testing.T) {
	base, err := Run(smokeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		rep, err := Run(smokeConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != base.Stats.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x", w, rep.Stats.Digest, base.Stats.Digest)
		}
		if rep.Stats.Submitted != base.Stats.Submitted || rep.Stats.PeakInFlight != base.Stats.PeakInFlight {
			t.Fatalf("workers=%d shape diverged: %+v vs %+v", w, rep.Stats, base.Stats)
		}
	}
}

func TestScaleCoordinated(t *testing.T) {
	cfg := smokeConfig(2)
	cfg.Coordinate = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditErr != nil {
		t.Fatalf("audit: %v", rep.AuditErr)
	}
	serial := smokeConfig(1)
	serial.Coordinate = true
	rep2, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Digest != rep2.Stats.Digest {
		t.Fatalf("coordinated digest differs across workers: %016x vs %016x",
			rep.Stats.Digest, rep2.Stats.Digest)
	}
}

func TestScalePolicies(t *testing.T) {
	// The harness must run every hollow-compatible policy, not just
	// SFQ(D).
	for _, p := range []cluster.Policy{cluster.Native, cluster.SFQD} {
		cfg := smokeConfig(1)
		cfg.Policy = p
		cfg.Audit = false
		cfg.Tenants = 8
		cfg.Horizon = 3
		if _, err := Run(cfg); err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
	}
}

// TestScaleHorizonRejected pins the horizon check at the public
// boundary: an infinite horizon would pump forever and a NaN one would
// silently run a single tick.
func TestScaleHorizonRejected(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := Run(Config{Nodes: 2, Tenants: 2, Horizon: h}); err == nil {
			t.Errorf("horizon %g accepted", h)
		}
	}
}

// TestScaleNonFiniteRejected pins the finiteness check on the other
// float fields: a NaN or infinite value is an error before the run
// starts, where it used to run zero requests (NaN MeanRequestBytes or
// LoadFactor, +Inf MeanRequestBytes).
func TestScaleNonFiniteRejected(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"MeanRequestBytes", func(c *Config, v float64) { c.MeanRequestBytes = v }},
		{"NodeBandwidth", func(c *Config, v float64) { c.NodeBandwidth = v }},
		{"LoadFactor", func(c *Config, v float64) { c.LoadFactor = v }},
		{"CoordinationPeriod", func(c *Config, v float64) { c.CoordinationPeriod = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{Nodes: 2, Tenants: 2, Horizon: 1}
			f.set(&cfg, v)
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s = %g accepted", f.name, v)
			}
		}
	}
}

// TestScaleGate is the acceptance-criteria run: 1000 hollow nodes, 10k
// tenants, ≥ 1M requests in flight, audit-clean, digest-identical
// across worker counts. Skipped under -short; CI runs it in the scale
// gate job.
func TestScaleGate(t *testing.T) {
	if testing.Short() {
		t.Skip("scale gate runs only in the full suite")
	}
	gate := func(workers int) Config {
		return Config{
			Nodes:            1000,
			Tenants:          10000,
			AppsPerTenant:    1,
			Replicas:         3,
			Seed:             20260809,
			Horizon:          25,
			Workers:          workers,
			Audit:            true,
			AuditSampleEvery: 100,
		}
	}
	base, err := Run(gate(1))
	if err != nil {
		t.Fatal(err)
	}
	st := base.Stats
	t.Logf("gate: submitted=%d peak-in-flight=%d fairness=%.3f events=%d wall=%.1fs heap=%.1fMB bytes/flow=%.0f",
		st.Submitted, st.PeakInFlight, st.FairnessMaxRatio, st.Events, st.WallSeconds,
		float64(st.PeakHeapBytes)/1e6, st.BytesPerFlow)
	if st.PeakInFlight < 1_000_000 {
		t.Fatalf("peak in flight %d < 1M: gate population too small", st.PeakInFlight)
	}
	if base.AuditErr != nil {
		t.Fatalf("audit: %v (%d violations)", base.AuditErr, base.Violations)
	}
	if st.FairnessMaxRatio > 2 {
		t.Fatalf("fairness max ratio %.3f at scale", st.FairnessMaxRatio)
	}
	// The memory envelope: under 1 KiB of heap per in-flight request
	// and under 2 GiB for the whole 1000-node model.
	if st.BytesPerFlow >= 1024 {
		t.Fatalf("%.0f bytes of heap per flow >= 1 KiB", st.BytesPerFlow)
	}
	if st.PeakHeapBytes >= 2<<30 {
		t.Fatalf("peak heap %.0f MB >= 2 GiB", float64(st.PeakHeapBytes)/1e6)
	}
	for _, w := range []int{4, 8} {
		rep, err := Run(gate(w))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Digest != st.Digest {
			t.Fatalf("workers=%d digest %016x != serial %016x", w, rep.Stats.Digest, st.Digest)
		}
	}
}
