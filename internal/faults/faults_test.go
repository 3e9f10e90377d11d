package faults

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ibis/internal/broker"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
)

func TestWindowContains(t *testing.T) {
	w := Window{Start: 2, End: 5}
	for _, tc := range []struct {
		t    float64
		want bool
	}{{1.9, false}, {2, true}, {4.999, true}, {5, false}, {6, false}} {
		if got := w.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if w.Duration() != 3 {
		t.Errorf("Duration() = %v, want 3", w.Duration())
	}
}

func TestNormalizeMergesAndSorts(t *testing.T) {
	got := normalize([]Window{
		{Start: 10, End: 12},
		{Start: 1, End: 3},
		{Start: 2, End: 5},     // overlaps [1,3)
		{Start: 5, End: 6},     // touches [1,5) -> merged
		{Start: 8, End: 8},     // empty, dropped
		{Start: 9, End: 7},     // inverted, dropped
		{Start: 11, End: 11.5}, // inside [10,12)
	})
	want := []Window{{Start: 1, End: 6}, {Start: 10, End: 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalize = %+v, want %+v", got, want)
	}
}

func TestInjectorExplicitWindows(t *testing.T) {
	inj := New(Spec{
		Outages: []Window{{Start: 20, End: 30}, {Start: 25, End: 40}},
		Partitions: map[string][]Window{
			"n1": {{Start: 5, End: 8}},
		},
	})
	if got, want := inj.Outages(), []Window{{Start: 20, End: 40}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Outages = %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		t    float64
		down bool
	}{{19.9, false}, {20, true}, {39.9, true}, {40, false}} {
		if got := inj.BrokerDown(tc.t); got != tc.down {
			t.Errorf("BrokerDown(%v) = %v, want %v", tc.t, got, tc.down)
		}
	}
	if !inj.Partitioned("n1", 6) || inj.Partitioned("n1", 8) || inj.Partitioned("n2", 6) {
		t.Error("Partitioned window semantics wrong")
	}
}

func TestInjectorGenerationDeterministic(t *testing.T) {
	spec := Spec{
		Seed:             42,
		Horizon:          60,
		OutageCount:      3,
		PartitionCount:   4,
		PartitionTargets: []string{"b", "a"},
		RestartCount:     3,
		RestartTargets:   []string{"b", "a"},
		DegradeCount:     2,
		DegradeTargets:   []string{"d1", "d0"},
	}
	a, b := New(spec), New(spec)
	if !reflect.DeepEqual(a.Outages(), b.Outages()) ||
		!reflect.DeepEqual(a.RestartSchedule(), b.RestartSchedule()) ||
		!reflect.DeepEqual(a.DegradeSchedule(), b.DegradeSchedule()) ||
		!reflect.DeepEqual(a.PartitionsFor("a"), b.PartitionsFor("a")) {
		t.Fatal("identical specs compiled to different schedules")
	}

	spec2 := spec
	spec2.Seed = 43
	c := New(spec2)
	if reflect.DeepEqual(a.Outages(), c.Outages()) && reflect.DeepEqual(a.RestartSchedule(), c.RestartSchedule()) {
		t.Error("different seeds produced the identical schedule")
	}

	// Generated entries respect the horizon and the mean duration band.
	for _, w := range a.Outages() {
		if w.Start < 0 || w.Start > 60 {
			t.Errorf("outage start %v outside horizon", w.Start)
		}
	}
	if n := len(a.RestartSchedule()); n != 3 {
		t.Errorf("restarts generated = %d, want 3", n)
	}
}

func TestRestartScheduleSortedAndSpread(t *testing.T) {
	inj := New(Spec{
		Seed:           7,
		RestartCount:   4,
		RestartTargets: []string{"z", "a"},
		Restarts:       map[string][]float64{"m": {10, 3}},
	})
	evs := inj.RestartSchedule()
	if len(evs) != 6 {
		t.Fatalf("restart events = %d, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("restart schedule unsorted: %+v", evs)
		}
	}
	// Round-robin spread over sorted targets: two each for "a" and "z".
	count := map[string]int{}
	for _, e := range evs {
		count[e.ID]++
	}
	if count["a"] != 2 || count["z"] != 2 || count["m"] != 2 {
		t.Errorf("restart spread = %v, want 2 each", count)
	}
}

func TestDegradeScheduleMergesPerDevice(t *testing.T) {
	inj := New(Spec{
		DeviceDegrade: map[string][]Window{
			"d0": {{Start: 4, End: 6}, {Start: 5, End: 9}},
			"d1": {{Start: 1, End: 2}},
		},
		DegradeFactor: 2, // invalid: >1 falls back to 0.25
	})
	ws := inj.DegradeSchedule()
	want := []DegradeWindow{
		{Device: "d1", Window: Window{Start: 1, End: 2}, Factor: 0.25},
		{Device: "d0", Window: Window{Start: 4, End: 9}, Factor: 0.25},
	}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("DegradeSchedule = %+v, want %+v", ws, want)
	}
}

func TestRollPureAndCalibrated(t *testing.T) {
	inj := New(Spec{Seed: 11})
	if inj.roll(saltReqDrop, "n0", 5) != inj.roll(saltReqDrop, "n0", 5) {
		t.Fatal("roll is not pure")
	}
	if inj.roll(saltReqDrop, "n0", 5) == inj.roll(saltRespDrop, "n0", 5) {
		t.Error("salts do not separate streams")
	}
	if inj.roll(saltReqDrop, "n0", 5) == inj.roll(saltReqDrop, "n1", 5) {
		t.Error("ids do not separate streams")
	}
	// Uniformity sanity: the empirical mean of a [0,1) uniform over 4k
	// draws is 0.5 ± a few percent.
	var sum float64
	const n = 4096
	for seq := uint64(0); seq < n; seq++ {
		v := inj.roll(saltDelay, "n0", seq)
		if v < 0 || v >= 1 {
			t.Fatalf("roll out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.03 {
		t.Errorf("roll mean = %.3f, want ≈0.5", mean)
	}
}

func TestClientIDs(t *testing.T) {
	got := ClientIDs(3)
	want := []string{"node0-hdfs", "node0-local", "node1-hdfs", "node1-local", "node2-hdfs", "node2-local"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ClientIDs(3) = %v, want %v", got, want)
	}
	if ids := ClientIDs(12); ids[22] != "node11-hdfs" {
		t.Errorf("ClientIDs(12)[22] = %s, want node11-hdfs", ids[22])
	}
}

// costs is the service vector of a name-keyed literal, numbered by
// tree and sorted by app name.
func costs(tree *shares.Tree, m map[iosched.AppID]float64) []iosched.AppCost {
	names := make([]iosched.AppID, 0, len(m))
	for app := range m {
		names = append(names, app)
	}
	slices.Sort(names)
	v := make([]iosched.AppCost, len(names))
	for i, app := range names {
		v[i] = iosched.AppCost{Idx: tree.Index(app), Cost: m[app]}
	}
	return v
}

// exchangeNow sends one exchange whose reply must arrive inside the
// call (a failure, or a response without delay) and returns its error.
func exchangeNow(t *testing.T, tree *shares.Tree, tr *Transport, id string, vec map[iosched.AppID]float64) error {
	t.Helper()
	var got error
	arrived := false
	tr.Exchange(id, costs(tree, vec), func(_ broker.Response, err error) { got, arrived = err, true })
	if !arrived {
		t.Fatalf("exchange from %s: no reply inside the call", id)
	}
	return got
}

func TestTransportOutageAndPartition(t *testing.T) {
	eng := sim.NewEngine()
	tree := shares.NewTree()
	p := broker.NewPartition(0, tree, 0)
	tr := NewTransport(eng, New(Spec{
		Outages:    []Window{{Start: 10, End: 20}},
		Partitions: map[string][]Window{"n0": {{Start: 30, End: 40}}},
	}), p)

	vec := map[iosched.AppID]float64{"a": 1}
	if err := exchangeNow(t, tree, tr, "n0", vec); err != nil {
		t.Fatalf("healthy exchange failed: %v", err)
	}
	eng.Schedule(15, func() {
		if err := exchangeNow(t, tree, tr, "n0", vec); err != broker.ErrUnavailable {
			t.Errorf("exchange during outage: err = %v, want ErrUnavailable", err)
		}
		var err error
		tr.Register("n0", func(e error) { err = e })
		if err != broker.ErrUnavailable {
			t.Errorf("register during outage: err = %v, want ErrUnavailable", err)
		}
	})
	eng.Schedule(35, func() {
		if err := exchangeNow(t, tree, tr, "n0", vec); err != broker.ErrUnavailable {
			t.Errorf("exchange while partitioned: err = %v, want ErrUnavailable", err)
		}
		if err := exchangeNow(t, tree, tr, "n1", vec); err != nil {
			t.Errorf("unpartitioned peer blocked: %v", err)
		}
	})
	eng.Run()
}

func TestTransportRequestDropNeverReachesBroker(t *testing.T) {
	eng := sim.NewEngine()
	tree := shares.NewTree()
	p := broker.NewPartition(0, tree, 0)
	b := p.Broker()
	tr := NewTransport(eng, New(Spec{DropProb: 1}), p)
	b.Register("n0")
	if err := exchangeNow(t, tree, tr, "n0", map[iosched.AppID]float64{"a": 7}); err != broker.ErrLost {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	if got := b.Total("a"); got != 0 {
		t.Errorf("dropped request still applied: Total(a) = %v", got)
	}
}

func TestTransportResponseDropAppliesReport(t *testing.T) {
	eng := sim.NewEngine()
	tree := shares.NewTree()
	p := broker.NewPartition(0, tree, 0)
	b := p.Broker()
	tr := NewTransport(eng, New(Spec{RespDropProb: 1}), p)
	b.Register("n0")
	if err := exchangeNow(t, tree, tr, "n0", map[iosched.AppID]float64{"a": 7}); err != broker.ErrLost {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	// The loss is on the downlink: the broker did see the report. The
	// client's idempotent cumulative vector makes the retry harmless.
	if got := b.Total("a"); got != 7 {
		t.Errorf("Total(a) = %v, want 7 (uplink delivered)", got)
	}
}

func TestTransportDelayBounds(t *testing.T) {
	eng := sim.NewEngine()
	tree := shares.NewTree()
	p := broker.NewPartition(0, tree, 0)
	b := p.Broker()
	tr := NewTransport(eng, New(Spec{DelayProb: 1, DelayMin: 0.1, DelayMax: 0.2}), p)
	b.Register("n0")
	// Every exchange is sent at t=0, so its arrival time is its rtt.
	arrivals := 0
	for i := 0; i < 64; i++ {
		tr.Exchange("n0", costs(tree, map[iosched.AppID]float64{"a": float64(i)}), func(_ broker.Response, err error) {
			arrivals++
			if err != nil {
				t.Fatalf("exchange %d: %v", i, err)
			}
			if rtt := eng.Now(); rtt < 0.1 || rtt > 0.2 {
				t.Fatalf("rtt %v outside [0.1, 0.2]", rtt)
			}
		})
	}
	eng.Schedule(1, func() {}) // responses are daemon events; keep the run alive past them
	eng.Run()
	if arrivals != 64 {
		t.Fatalf("%d of 64 responses arrived", arrivals)
	}
}

func TestTransportDelayDefaultMax(t *testing.T) {
	inj := New(Spec{DelayProb: 0.5})
	if inj.delayMax != 0.5 {
		t.Errorf("default DelayMax = %v, want 0.5", inj.delayMax)
	}
	inj = New(Spec{DelayProb: 0.5, DelayMin: 0.9, DelayMax: 0.3})
	if inj.delayMin != 0.3 {
		t.Errorf("DelayMin not clamped to DelayMax: %v", inj.delayMin)
	}
}
