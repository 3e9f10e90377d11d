package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

func flatSpec() storage.Spec {
	return storage.Spec{
		Name:   "flat",
		ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	}
}

// alphaBeta returns a share tree that binds app alpha at weight 1 and
// beta at weight 2, each under its implicit tenant, so they resolve to
// exactly those weights.
func alphaBeta(t testing.TB) *shares.Tree {
	t.Helper()
	tree := shares.NewTree()
	for i, app := range []iosched.AppID{"alpha", "beta"} {
		if err := tree.Bind(app, "", float64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// sfqd2 builds an SFQ(D=2) scheduler on a flat device.
func sfqd2(t testing.TB, eng *sim.Engine) *iosched.SFQ {
	t.Helper()
	s, err := iosched.NewSFQD(eng, storage.NewDevice(eng, "d", flatSpec()), 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTraced returns a tracer of capacity records whose apps alphaBeta
// numbers, after nReqs closed-loop 1 MB reads from alpha and beta ran
// to completion through an SFQ(D=2) scheduler with its probe attached.
func newTraced(t testing.TB, capacity, nReqs int) *trace.Tracer {
	tree := alphaBeta(t)
	tr := trace.New(capacity, tree)
	eng := sim.NewEngine()
	s := sfqd2(t, eng)
	s.SetProbe(tr.Probe(0, 0, trace.DevHDFS))
	apps := []iosched.AppID{"alpha", "beta"}
	for i := 0; i < nReqs; i++ {
		s.Submit(&iosched.Request{App: apps[i%2], Shares: tree, Class: iosched.PersistentRead, Size: 1e6})
	}
	eng.Run()
	return tr
}

func TestTracerRecordsFullLifecycles(t *testing.T) {
	const n = 20
	tr := newTraced(t, 1<<10, n)
	if got := tr.Total(); got != 3*n {
		t.Fatalf("Total() = %d, want %d (3 events per request)", got, 3*n)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped() = %d with ample capacity, want 0", tr.Dropped())
	}
	reqs := tr.Requests()
	if len(reqs) != n {
		t.Fatalf("Requests() grouped %d lifecycles, want %d", len(reqs), n)
	}
	for _, r := range reqs {
		if r.Arrive < 0 || r.Dispatch < r.Arrive || r.Complete < r.Dispatch {
			t.Fatalf("lifecycle out of order: arrive=%v dispatch=%v complete=%v", r.Arrive, r.Dispatch, r.Complete)
		}
		if r.QueueDelay() < 0 || r.ServiceTime() <= 0 || r.Latency <= 0 {
			t.Fatalf("phase durations: queue=%v service=%v latency=%v", r.QueueDelay(), r.ServiceTime(), r.Latency)
		}
		if r.StartTag == 0 && r.FinishTag == 0 {
			t.Fatalf("request %s/%d has no SFQ tags recorded", r.App, r.Seq)
		}
	}
}

func TestTracerRingWraparound(t *testing.T) {
	const capacity = 16
	const n = 40 // 120 events >> capacity
	tr := newTraced(t, capacity, n)
	if tr.Len() != capacity {
		t.Fatalf("Len() = %d, want full ring %d", tr.Len(), capacity)
	}
	if want := uint64(3*n) - capacity; tr.Dropped() != want {
		t.Fatalf("Dropped() = %d, want %d", tr.Dropped(), want)
	}
	recs := tr.Records()
	if len(recs) != capacity {
		t.Fatalf("Records() = %d, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatalf("records out of order after wrap: t[%d]=%v < t[%d]=%v", i, recs[i].Time, i-1, recs[i-1].Time)
		}
	}
	// The survivors must be the newest events, i.e. the tail of the run.
	if recs[len(recs)-1].Event != iosched.ProbeComplete {
		t.Fatalf("last surviving record is %v, want the final completion", recs[len(recs)-1].Event)
	}
}

func TestTracerReset(t *testing.T) {
	tr := newTraced(t, 64, 4)
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d, want 0,0", tr.Len(), tr.Total())
	}
	if tr.Capacity() != 64 {
		t.Fatalf("Reset changed capacity to %d", tr.Capacity())
	}
}

func TestJSONLDeterministicAndParseable(t *testing.T) {
	export := func() string {
		tr := newTraced(t, 1<<10, 10)
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("identical runs exported different JSONL")
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("JSONL has %d lines, want 30", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		for _, field := range []string{"t", "node", "dev", "ev", "app", "class", "seq"} {
			if _, ok := m[field]; !ok {
				t.Fatalf("JSONL line missing %q: %s", field, line)
			}
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := newTraced(t, 1<<10, 10)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	// 2 thread-name metadata events + 2 slices per completed request.
	if len(doc.TraceEvents) != 2+2*10 {
		t.Fatalf("Chrome trace has %d events, want 22", len(doc.TraceEvents))
	}
}

func TestMultiProbeFansOut(t *testing.T) {
	tree := shares.NewTree()
	t1, t2 := trace.New(256, tree), trace.New(256, tree)
	eng := sim.NewEngine()
	s := sfqd2(t, eng)
	s.SetProbe(iosched.MultiProbe(t1.Probe(0, 0, trace.DevHDFS), nil, t2.Probe(0, 0, trace.DevLocal)))
	for i := 0; i < 6; i++ {
		s.Submit(&iosched.Request{App: "a", Shares: tree, Class: iosched.PersistentRead, Size: 1e6})
	}
	eng.Run()
	if t1.Total() != 18 || t2.Total() != 18 {
		t.Fatalf("fan-out totals %d/%d, want 18/18", t1.Total(), t2.Total())
	}
	if trace.DeviceKindOf("local") != trace.DevLocal || trace.DeviceKindOf("nic") != trace.DevNIC {
		t.Fatal("DeviceKindOf label mapping broken")
	}
}
