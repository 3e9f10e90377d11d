package ibis_test

import (
	"math"
	"testing"

	"ibis"
	"ibis/internal/iosched"
)

func TestQuickstartScenario(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.SFQD2})
	if err != nil {
		t.Fatal(err)
	}
	wc := ibis.WordCount(3e9, 4)
	wc.Weight = 32
	wc.CPUQuota = 48
	tg := ibis.TeraGen(20e9, 48)
	tg.Weight = 1
	tg.CPUQuota = 48
	jwc, err := sim.Submit(wc, 0)
	if err != nil {
		t.Fatal(err)
	}
	jtg, err := sim.Submit(tg, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Run()
	if !jwc.Done() || !jtg.Done() {
		t.Fatal("jobs did not finish")
	}
	if end <= 0 || sim.Now() != end {
		t.Fatalf("end = %v now = %v", end, sim.Now())
	}
	st := sim.Storage()
	if st.ReadBytes <= 0 || st.WriteBytes <= 0 {
		t.Fatalf("storage counters empty: %+v", st)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	sim, err := ibis.New(ibis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.TotalCores() != 96 {
		t.Fatalf("TotalCores = %d, want 96", sim.TotalCores())
	}
}

func TestQueryExecution(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.Native})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.SubmitQuery(ibis.Q21(), ibis.QueryOptions{ScaleBytes: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !exec.Done() {
		t.Fatal("query incomplete")
	}
	if exec.Runtime() <= 0 {
		t.Fatalf("runtime = %v", exec.Runtime())
	}
}

func TestIsolationEndToEnd(t *testing.T) {
	// The paper's headline behaviour through the public API: under
	// SFQ(D2) with a 32:1 weight, WordCount's slowdown against TeraGen
	// collapses compared to the native run.
	runtimeOf := func(policy ibis.Policy, withTG bool) float64 {
		sim, err := ibis.New(ibis.Config{Policy: policy, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		wc := ibis.WordCount(4e9, 4)
		wc.Weight = 32
		wc.CPUQuota = 48
		wc.Pool = "wc"
		sim.DefinePool("wc", 48, 96)
		j, err := sim.Submit(wc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if withTG {
			tg := ibis.TeraGen(60e9, 48)
			tg.CPUQuota = 48
			tg.Pool = "tg"
			tg.OutputReplication = 1
			sim.DefinePool("tg", 48, 96)
			if _, err := sim.Submit(tg, 0); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
		return j.Result().Runtime()
	}
	alone := runtimeOf(ibis.Native, false)
	native := runtimeOf(ibis.Native, true)
	isolated := runtimeOf(ibis.SFQD2, true)
	nativeSlow := native/alone - 1
	isoSlow := isolated/alone - 1
	if nativeSlow < 0.3 {
		t.Fatalf("native slowdown %.2f too small for the scenario", nativeSlow)
	}
	if isoSlow > nativeSlow/2 {
		t.Fatalf("SFQ(D2) slowdown %.2f not well below native %.2f", isoSlow, nativeSlow)
	}
}

func TestCoordinationVisibleThroughAPI(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.SFQD2, Coordinate: true})
	if err != nil {
		t.Fatal(err)
	}
	tg := ibis.TeraGen(10e9, 24)
	tg.OutputReplication = 1
	j, err := sim.Submit(tg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !j.Done() {
		t.Fatal("job incomplete")
	}
	if sim.BrokerTotal(j.App) <= 0 {
		t.Fatal("broker never learned the app's service")
	}
}

// TestIOObserverThroughAPI only counts: the job's requests are pooled
// and recycled after completion, so an observer keeps no pointer.
func TestIOObserverThroughAPI(t *testing.T) {
	sim, err := ibis.New(ibis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	sim.SetIOObserver(func(_ int, req *iosched.Request, _ float64) { count++ })
	tg := ibis.TeraGen(2e9, 8)
	tg.OutputReplication = 1
	sim.Submit(tg, 0)
	sim.Run()
	if count == 0 {
		t.Fatal("observer saw no I/O")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() float64 {
		sim, _ := ibis.New(ibis.Config{Policy: ibis.SFQD2, Seed: 11})
		ts := ibis.TeraSort(4e9, 4)
		j, _ := sim.Submit(ts, 0)
		sim.Run()
		return j.Result().Runtime()
	}
	a, b := run(), run()
	if a != b || math.IsNaN(a) {
		t.Fatalf("nondeterministic runtimes %v vs %v", a, b)
	}
}

func TestRunUntil(t *testing.T) {
	sim, _ := ibis.New(ibis.Config{})
	ts := ibis.TeraSort(8e9, 4)
	j, _ := sim.Submit(ts, 0)
	sim.RunUntil(1)
	if j.Done() {
		t.Fatal("job finished suspiciously fast")
	}
	sim.Run()
	if !j.Done() {
		t.Fatal("job incomplete after full run")
	}
}

// TestFailNodeBadIndexIsAnError: the public FailNode reports an index
// outside [0, Nodes) instead of panicking.
func TestFailNodeBadIndexIsAnError(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, 4} {
		if err := sim.FailNode(idx); err == nil {
			t.Errorf("FailNode(%d) on 4 nodes accepted", idx)
		}
	}
}

func TestFailureInjectionThroughAPI(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.SFQD2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := ibis.TeraSort(8e9, 4)
	j, err := sim.Submit(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(2, func() { sim.FailNode(3) })
	sim.Run()
	if !j.Done() {
		t.Fatalf("job state %v; replication 3 must survive one node failure", j.State())
	}
}

// A job whose byte volume or CPU cost is NaN or ±Inf is refused at
// Submit, before it can reach the runtime's task and chunk sizing.
func TestSubmitRejectsNonFiniteSpec(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.SFQD2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*ibis.JobSpec)
	}{
		{"+Inf input", func(s *ibis.JobSpec) { s.InputBytes = math.Inf(1) }},
		{"NaN input", func(s *ibis.JobSpec) { s.InputBytes = math.NaN() }},
		{"-Inf output", func(s *ibis.JobSpec) { s.OutputBytes = math.Inf(-1) }},
		{"NaN map CPU", func(s *ibis.JobSpec) { s.MapCPUSecPerMB = math.NaN() }},
	} {
		spec := ibis.WordCount(3e9, 4)
		tc.mutate(&spec)
		if _, err := sim.Submit(spec, 0); err == nil {
			t.Errorf("%s: Submit accepted %+v", tc.name, spec)
		}
	}
	if end := sim.Run(); end != 0 {
		t.Fatalf("refused jobs ran until t=%v", end)
	}
}

// A query with a malformed later stage is refused at SubmitQuery,
// before its first stage is submitted, instead of failing mid-run
// when the chain reaches that stage.
func TestSubmitQueryRejectsBadLaterStage(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.Native})
	if err != nil {
		t.Fatal(err)
	}
	q := ibis.Q9()
	q.Stages[1].InputGB = -1
	if _, err := sim.SubmitQuery(q, ibis.QueryOptions{ScaleBytes: 0.002}); err == nil {
		sim.Run()
		t.Fatal("SubmitQuery accepted a query whose stage 1 has a negative input volume")
	}
	if end := sim.Run(); end != 0 {
		t.Fatalf("refused query ran until t=%v", end)
	}
}
