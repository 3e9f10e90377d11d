package scale

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// scaleOutcome renders a run's completion digest and its audit check
// tallies in name order.
func scaleOutcome(rep *Report) string {
	names := make([]string, 0, len(rep.AuditChecks))
	for k := range rep.AuditChecks {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "digest %016x violations=%d", rep.Stats.Digest, rep.Violations)
	for _, k := range names {
		fmt.Fprintf(&b, "\n%s=%d", k, rep.AuditChecks[k])
	}
	return b.String()
}

// TestScaleGolden pins the digest and the audit tallies of the smoke
// population, its federated variant and the federated leader-outage
// run. The audit log of every sampled node is replayed in (time,
// shard) order at the end of the run, so a change to what it records
// or to the replay order moves a pin.
func TestScaleGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"smoke", smokeConfig(1), `digest 833eabda0854f27a violations=0
lifecycle=19953`},
		{"federated", fedConfig(1, 4), `digest 5e245ca2379102c6 violations=0
broker-conservation=4
depth-bound=6651
federation-conservation=44
lifecycle=19953
share-federated=253
start-tag-monotonicity=6651
tag-consistency=6651
vtime-monotonicity=6651
work-conservation=6651`},
		{"federated-chaos", fedChaosConfig(1), `digest 90b9e4a59f711d13 violations=0
broker-conservation=4
degrade-noted=15
depth-bound=37596
federation-conservation=265
lifecycle=112788
recover-noted=15
start-tag-monotonicity=37596
tag-consistency=37596
total-proportional-share-skipped=5
vtime-monotonicity=37596
work-conservation=37596`},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := scaleOutcome(rep); got != c.want {
				t.Errorf("outcome:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}
