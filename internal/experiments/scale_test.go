package experiments

import (
	"strings"
	"testing"

	"ibis/internal/scale"
)

// TestHollowLegsAgree runs Hollow, behind both the scale and the
// federation experiments, at a tiny shape, uncoordinated and through
// two partition brokers: both legs must end with the same digest, the
// federated run must run its partitions, and the audit must judge
// something and find nothing.
func TestHollowLegsAgree(t *testing.T) {
	for _, cfg := range []scale.Config{
		{Nodes: 8, Tenants: 16, Seed: 3, Horizon: 4, Workers: 2},
		{Nodes: 8, Tenants: 16, Seed: 3, Horizon: 4, Workers: 2, Coordinate: true, Partitions: 2},
	} {
		res, err := Hollow(cfg)
		if err != nil {
			t.Fatalf("partitions=%d: %v", cfg.Partitions, err)
		}
		if len(res.Rows) != 2 || res.Rows[0].Workers != 1 || res.Rows[1].Workers != 2 {
			t.Fatalf("partitions=%d: legs %+v, want workers 1 then 2", cfg.Partitions, res.Rows)
		}
		out := res.String()
		for _, row := range res.Rows {
			st := row.Stats
			if st.Digest != res.Rows[0].Stats.Digest || !res.Match {
				t.Errorf("partitions=%d: workers=%d digest %016x, want %016x",
					cfg.Partitions, row.Workers, st.Digest, res.Rows[0].Stats.Digest)
			}
			if st.Submitted == 0 || st.Submitted != st.Completed {
				t.Errorf("partitions=%d: workers=%d submitted %d, completed %d",
					cfg.Partitions, row.Workers, st.Submitted, st.Completed)
			}
			if st.Partitions != cfg.Partitions {
				t.Errorf("partitions=%d: workers=%d ran %d partitions", cfg.Partitions, row.Workers, st.Partitions)
			}
			var checks uint64
			for _, n := range row.Checks {
				checks += n
			}
			if checks == 0 {
				t.Errorf("partitions=%d: workers=%d audit judged nothing", cfg.Partitions, row.Workers)
			}
		}
		federated := cfg.Partitions > 1
		if federated && (res.Rows[0].Checks["share-federated"] == 0 || res.Rows[0].Checks["federation-conservation"] == 0) {
			t.Errorf("federated run skipped its regime: checks %v", res.Rows[0].Checks)
		}
		if strings.Contains(out, "compression=") != federated || strings.Contains(out, "audit: share-federated") != federated {
			t.Errorf("partitions=%d: federation lines wrong in\n%s", cfg.Partitions, out)
		}
		if !strings.HasSuffix(out, "deterministic-across-workers=true\n") {
			t.Errorf("partitions=%d: output does not end with the determinism line:\n%s", cfg.Partitions, out)
		}
	}
}
