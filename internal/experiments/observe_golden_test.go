package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ibis/internal/cluster"
)

// observationOutcome renders what the observation planes saw in one
// run: the sha256 of the JSONL trace and every audit check tally in
// name order.
func observationOutcome(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checks := res.Audit.Checks()
	names := make([]string, 0, len(checks))
	for k := range checks {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "trace %x\n", sha256.Sum256(buf.Bytes()))
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, checks[k])
	}
	fmt.Fprintf(&b, "violations=%d", res.Audit.ViolationCount())
	return b.String()
}

// TestObservationGolden pins the trace bytes and the audit tallies of
// the standard contention scenario on both shard layouts: the fabric
// (one shard per node; trace rings and audit logs merged by time, then
// shard) and the one-shard cluster (one ring, eager audit). Any change
// to what the observers record, or to the order the merge emits it in,
// moves a pin.
func TestObservationGolden(t *testing.T) {
	sharded, _ := shardedRun(t, 7, 1)
	if got, want := observationOutcome(t, sharded), `trace b6fc4b942b6665241fab9ecb561755b094112eb3930bf985b25c7960978b2ce9
broker-conservation=3073
depth-bound=119258
lifecycle=357774
start-tag-monotonicity=119258
tag-consistency=119258
vtime-monotonicity=119258
work-conservation=119258
violations=0`; got != want {
		t.Errorf("sharded outcome:\n%s\nwant:\n%s", got, want)
	}

	scale := 0.0625
	single, err := Run(Options{
		Scale:         scale,
		Policy:        cluster.SFQD2,
		Coordinate:    true,
		Seed:          7,
		TraceCapacity: 1 << 15,
		Audit:         true,
	}, []Entry{wordCount(scale, 1), teraSortContender(scale, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := observationOutcome(t, single), `trace bdb678394ef6a4efb6d404887f0bf56f2ac25331b698e184d291d9510771a537
broker-conservation=2929
depth-bound=119258
lifecycle=357774
start-tag-monotonicity=119258
tag-consistency=119258
vtime-monotonicity=119258
work-conservation=119258
violations=0`; got != want {
		t.Errorf("single-shard outcome:\n%s\nwant:\n%s", got, want)
	}
}

// TestCoordinationGolden pins the two audited coordination
// microbenchmarks: the fault matrix (one run per fault scenario, each
// with the broker, degrade notes and every scheduler audited) and the
// live reweight (the same, plus epoch notes and tenant checks). Their
// rendered outputs include every audit tally they report, so a change
// to what the auditor is attached to moves a pin.
func TestCoordinationGolden(t *testing.T) {
	fm, err := FaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(fm.String()))), "e2940cca064d4f4bca897dc2a1aaf48769e3f1d3a7df30dddaa330249db888fc"; got != want {
		t.Errorf("fault matrix sha256 %s, want %s\n%s", got, want, fm)
	}
	rw, err := Reweight(ReweightSpec{App: "hot", Weight: 8, At: 20})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(js)), "7804a6a49f6c78144ddbd09471f6b32788632dfd8a5d16e344b4315f12825171"; got != want {
		t.Errorf("reweight sha256 %s, want %s\n%s", got, want, js)
	}
}
