package ibis_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ibis"
)

// TestObservedRunGolden pins what the observers attached by ibis.New
// see on a run that exercises every observation input at once: the
// traced, audited contention workload of reweightDigest, coordinated
// under a fault schedule (broker outage, message loss and delay, a
// degraded device) and reweighted twice mid-run. The pin covers the
// trace bytes, the share-tree epoch marks and every audit tally, so a
// change to which objects the tracer or auditor watch — or to the
// degrade and epoch notes they receive — moves it.
func TestObservedRunGolden(t *testing.T) {
	sim, err := ibis.New(ibis.Config{
		Policy:        ibis.SFQD2,
		Seed:          42,
		TraceCapacity: 1 << 15,
		Coordinate:    true,
		Audit:         true,
		Faults: &ibis.FaultSpec{
			Seed:          3,
			Outages:       []ibis.FaultWindow{{Start: 4, End: 7}},
			DropProb:      0.1,
			RespDropProb:  0.05,
			DelayProb:     0.2,
			DelayMax:      0.1,
			DeviceDegrade: map[string][]ibis.FaultWindow{"node1-hdfs": {{Start: 2, End: 9}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := ibis.WordCount(0.5e9, 2)
	wc.App = "wordcount"
	wc.Weight = 8
	tg := ibis.TeraGen(1e9, 8)
	tg.App = "teragen"
	tg.Weight = 1
	if _, err := sim.Submit(wc, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Submit(tg, 0); err != nil {
		t.Fatal(err)
	}
	for _, st := range []reweightStep{{at: 5, app: "wordcount", weight: 1}, {at: 12, app: "teragen", weight: 16}} {
		st := st
		sim.Schedule(st.at, func() {
			if err := sim.SetWeight(st.app, st.weight); err != nil {
				t.Errorf("SetWeight(%s, %g): %v", st.app, st.weight, err)
			}
		})
	}
	sim.Run()

	var buf bytes.Buffer
	if err := sim.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %x", sha256.Sum256(buf.Bytes()))
	for _, e := range sim.Trace().Epochs() {
		fmt.Fprintf(&b, "\nepoch t=%g %d %s", e.Time, e.Epoch, e.Detail)
	}
	checks := sim.Audit().Checks()
	names := make([]string, 0, len(checks))
	for k := range checks {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "\n%s=%d", k, checks[k])
	}
	fmt.Fprintf(&b, "\nviolations=%d", sim.Audit().ViolationCount())
	if got, want := b.String(), `trace 5238fe0b860b1dda707aff2fb15b260a7e0ec0f032e700ad32a3e5ce662c6731
epoch t=5 3 app-weight ~wordcount/wordcount 8->1
epoch t=12 4 app-weight ~teragen/teragen 1->16
broker-conservation=437
degrade-noted=16
depth-bound=1939
epoch-noted=2
lifecycle=5817
recover-noted=16
start-tag-monotonicity=1939
tag-consistency=1939
vtime-monotonicity=1939
work-conservation=1939
violations=0`; got != want {
		t.Errorf("outcome:\n%s\nwant:\n%s", got, want)
	}
}
