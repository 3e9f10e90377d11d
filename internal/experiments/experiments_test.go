package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/mapreduce"
	"ibis/internal/workloads"
)

// The experiment drivers are exercised at a reduced scale where
// possible; shape assertions mirror the paper's qualitative claims.

const testScale = DefaultScale

// pinDigest asserts the sha256 of a figure's printed output at
// DefaultScale. Together the pinned figures run the shuffle,
// preemption, Hive-stage and replicated-output paths end to end, so
// any change to the simulated behaviour moves a digest.
func pinDigest(t *testing.T, out fmt.Stringer, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != want {
		t.Errorf("output digest %s, want %s; output:\n%s", got, want, out)
	}
}

func TestFig02Shapes(t *testing.T) {
	res, err := Fig02(testScale)
	if err != nil {
		t.Fatal(err)
	}
	tsPeakW, _ := peak(res.TeraSortWrite)
	wcPeakW, _ := peak(res.WordCountWrite)
	tsPeakR, _ := peak(res.TeraSortRead)
	wcPeakR, _ := peak(res.WordCountRead)
	// "TeraSort has a much more intensive I/O workload than WordCount":
	// its write peaks dominate.
	if tsPeakW < 2*wcPeakW {
		t.Errorf("terasort write peak %.0f not ≫ wordcount %.0f", tsPeakW, wcPeakW)
	}
	if tsPeakR <= 0 || wcPeakR <= 0 {
		t.Error("read profiles empty")
	}
	// WordCount's output is much smaller than its input: mean write
	// rate well below mean read rate.
	if mean(res.WordCountWrite) > mean(res.WordCountRead) {
		t.Error("wordcount writes should be lighter than reads")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func peak(v []float64) (float64, int) {
	best, idx := 0.0, -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestFig03Ordering(t *testing.T) {
	res, err := Fig03(testScale, false)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, res, "dd7c2f4fb8ff327cc9d1b15ef8cbca74c36ebd05caa5bc42c9b6a877093f6408")
	slow := map[string]float64{}
	for _, row := range res.Rows {
		slow[row.CoRunner] = row.Slowdown
	}
	// TeraGen and TeraSort interfere severely; TeraValidate least.
	if slow["teragen"] < 0.4 || slow["terasort"] < 0.3 {
		t.Errorf("heavy co-runners too gentle: %+v", slow)
	}
	if slow["teravalidate"] >= slow["teragen"] || slow["teravalidate"] >= slow["terasort"] {
		t.Errorf("teravalidate should interfere least: %+v", slow)
	}
	if res.StandaloneWC <= 0 {
		t.Error("missing standalone baseline")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig06Shape(t *testing.T) {
	res, err := Fig06(testScale)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, res, "b0ed6079a4f0c67fa3b9d817991d3f53355d8c771c8e1e5a8433f5b6e7fdb19d")
	rows := map[string]Fig06Row{}
	for _, row := range res.Rows {
		rows[row.Config] = row
	}
	native := rows["native"]
	d2 := rows["sfq(d2)"]
	d2static := rows["sfq(d=2)"]
	// Headline: IBIS collapses the interference.
	if d2.Slowdown > native.Slowdown/2 {
		t.Errorf("sfq(d2) slowdown %.2f not well below native %.2f", d2.Slowdown, native.Slowdown)
	}
	// Native is the most work-conserving configuration: highest
	// throughput of all rows.
	for name, row := range rows {
		if name == "native" {
			continue
		}
		if row.Throughput > native.Throughput*1.01 {
			t.Errorf("%s throughput %.1f exceeds native %.1f", name, row.Throughput, native.Throughput)
		}
	}
	// SFQ(D=2) pays the biggest utilization price; SFQ(D2) must beat it.
	if d2.ThroughputLoss < d2static.ThroughputLoss {
		t.Errorf("sfq(d2) tput loss %.2f worse than static d=2 %.2f", d2.ThroughputLoss, d2static.ThroughputLoss)
	}
	// The static ladder: deeper D ⇒ worse isolation than shallow D.
	if rows["sfq(d=12)"].Slowdown < rows["sfq(d=2)"].Slowdown {
		t.Errorf("depth ladder inverted: d=12 %.2f < d=2 %.2f",
			rows["sfq(d=12)"].Slowdown, rows["sfq(d=2)"].Slowdown)
	}
}

func TestFig07Controller(t *testing.T) {
	res, err := Fig07(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 50 {
		t.Fatalf("trace too short: %d periods", len(res.Trace))
	}
	lo, hi := res.DepthRange()
	if lo < 1 || hi > 12 {
		t.Fatalf("depth range [%d,%d] outside the paper's [1,12]", lo, hi)
	}
	if hi-lo < 3 {
		t.Fatalf("depth barely adapted: range [%d,%d]", lo, hi)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig08SSD(t *testing.T) {
	res, err := Fig08(testScale)
	if err != nil {
		t.Fatal(err)
	}
	var native, d2 Fig06Row
	for _, row := range res.Rows {
		if row.Config == "native" {
			native = row
		} else {
			d2 = row
		}
	}
	// "Faster storage does not make the I/O contention problem go
	// away" — and IBIS still isolates on SSDs.
	if native.Slowdown < 0.2 {
		t.Errorf("SSD native slowdown %.2f too small", native.Slowdown)
	}
	if d2.Slowdown > native.Slowdown*0.6 {
		t.Errorf("SSD sfq(d2) %.2f not well below native %.2f", d2.Slowdown, native.Slowdown)
	}
}

func TestFig09Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	res, err := Fig09(testScale)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, res, "9180f9a63ad98bb925643f51f71acb727781ed6d1102724a116e1c851ec1635c")
	sa := res.Case("standalone")
	in := res.Case("interfered")
	d2 := res.Case("sfq(d2)")
	if sa == nil || in == nil || d2 == nil {
		t.Fatal("missing cases")
	}
	// Interfered ≫ isolated ≈ standalone, at both the mean and p90.
	if in.Runtimes.Mean() < 1.5*sa.Runtimes.Mean() {
		t.Errorf("interference too gentle: mean %.1f vs standalone %.1f",
			in.Runtimes.Mean(), sa.Runtimes.Mean())
	}
	if d2.Runtimes.Mean() > 1.4*sa.Runtimes.Mean() {
		t.Errorf("isolation too weak: mean %.1f vs standalone %.1f",
			d2.Runtimes.Mean(), sa.Runtimes.Mean())
	}
	if d2.Runtimes.Percentile(90) > in.Runtimes.Percentile(90) {
		t.Errorf("sfq(d2) p90 %.1f worse than interfered %.1f",
			d2.Runtimes.Percentile(90), in.Runtimes.Percentile(90))
	}
	if sa.Runtimes.N() != 50 {
		t.Errorf("jobs = %d, want 50", sa.Runtimes.N())
	}
	// The same workload must also finish on half-size nodes with no
	// pool — memory pressure from node shape rather than pool caps (Run
	// errors on any unfinished job).
	var entries []Entry
	for _, j := range workloads.FacebookWorkload(workloads.FacebookConfig{
		Seed: res.Seed, ScaleBytes: testScale, Weight: 1, MeanInterarrival: 6,
	}) {
		entries = append(entries, Entry{Spec: j.Spec, Delay: j.Arrival})
	}
	if _, err := Run(Options{Scale: testScale, Policy: cluster.Native, CoresPerNode: 6, MemGBPerNode: 12}, entries); err != nil {
		t.Errorf("standalone on half-size nodes: %v", err)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	res, err := Fig10(testScale)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, res, "13bec9e2ab9528874f5b2c6a3b528e056e2d9f4a3fbae06e4cfa46d9d0e832e8")
	for _, q := range res.Queries {
		rows := map[string]Fig10Row{}
		for _, row := range q.Rows {
			rows[row.Policy] = row
		}
		// IBIS delivers the best query-relative performance.
		for name, row := range rows {
			if name == "ibis" {
				continue
			}
			if row.QueryRel > rows["ibis"].QueryRel+0.02 {
				t.Errorf("%s: %s query-rel %.2f beats ibis %.2f", q.Query, name, row.QueryRel, rows["ibis"].QueryRel)
			}
		}
		// Throttling is non-work-conserving: TeraSort suffers most
		// under it.
		if rows["cg-throttle"].TSRel > rows["ibis"].TSRel {
			t.Errorf("%s: throttled terasort %.2f not worse than ibis %.2f",
				q.Query, rows["cg-throttle"].TSRel, rows["ibis"].TSRel)
		}
		// IBIS achieves the best average relative performance.
		for name, row := range rows {
			if name == "ibis" {
				continue
			}
			if row.AvgRel > rows["ibis"].AvgRel+0.02 {
				t.Errorf("%s: %s avg-rel %.2f beats ibis %.2f", q.Query, name, row.AvgRel, rows["ibis"].AvgRel)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	res, err := Fig11(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Joint CPU+IBIS tuning reaches a smaller gap AND a lower average
	// slowdown than CPU-only tuning (the paper's 30% improvement).
	if res.FSIBISBest.Gap() > res.FSBest.Gap() {
		t.Errorf("joint tuning gap %.2f worse than fs-only %.2f", res.FSIBISBest.Gap(), res.FSBest.Gap())
	}
	if res.FSIBISBest.Avg() > res.FSBest.Avg() {
		t.Errorf("joint tuning avg %.2f worse than fs-only %.2f", res.FSIBISBest.Avg(), res.FSBest.Avg())
	}
	if len(res.Swept) < 10 {
		t.Errorf("sweep too small: %d", len(res.Swept))
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	res, err := Fig12(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Coordination must not hurt, and the microbenchmark must show the
	// total-service correction clearly.
	if res.Improvement() < -0.05 {
		t.Errorf("sync made things worse: %.2f", res.Improvement())
	}
	if res.MicroSyncRatio >= res.MicroNoSyncRatio {
		t.Errorf("micro: sync ratio %.2f not below no-sync %.2f", res.MicroSyncRatio, res.MicroNoSyncRatio)
	}
	// Sync should approach the physical optimum (≈3) from ≈7.
	if res.MicroSyncRatio > 4.5 {
		t.Errorf("micro sync ratio %.2f too far from the optimum ≈3", res.MicroSyncRatio)
	}
}

func TestFig13Overhead(t *testing.T) {
	res, err := Fig13(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Overhead > 0.15 {
			t.Errorf("%s: interposition overhead %.1f%% too high", row.App, row.Overhead*100)
		}
		if row.NativeRuntime <= 0 || row.IBISRuntime <= 0 {
			t.Errorf("%s: missing runtimes", row.App)
		}
	}
}

func TestTable2Bounded(t *testing.T) {
	res, err := Table2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Policy == "Native" && row.BrokerExchanges != 0 {
			t.Errorf("%s native has broker traffic", row.App)
		}
		if row.Policy == "SFQ(D2)" && row.BrokerExchanges == 0 {
			t.Errorf("%s ibis missing broker traffic", row.App)
		}
	}
}

func TestTable3Counts(t *testing.T) {
	res, err := Table3("../..")
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCode < 3000 {
		t.Errorf("code lines = %d, implausibly low", res.TotalCode)
	}
	if res.TotalTests < 1000 {
		t.Errorf("test lines = %d, implausibly low", res.TotalTests)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

// TestTable3CoversEveryPackage: every directory under internal/ and
// cmd/ belongs to some Table 3 component, so the TOTAL counts the
// whole program.
func TestTable3CoversEveryPackage(t *testing.T) {
	covered := func(dir string) bool {
		for _, c := range table3Components {
			for _, d := range c.Dirs {
				if dir == d || strings.HasPrefix(dir, d+"/") {
					return true
				}
			}
		}
		return false
	}
	for _, top := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(filepath.Join("../..", top))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := top + "/" + e.Name(); e.IsDir() && !covered(dir) {
				t.Errorf("%s belongs to no Table 3 component", dir)
			}
		}
	}
}

func TestTable3BadRoot(t *testing.T) {
	if _, err := Table3("/nonexistent-path"); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestHarnessRejectsUnfinishedJobs(t *testing.T) {
	// A run halted before the workload finishes must surface an error
	// rather than report partial results.
	_, err := RunWithSetup(Options{Scale: testScale, Policy: cluster.Native},
		[]Entry{teraGen(testScale, 1)}, func(rt *mapreduce.Runtime) error {
			rt.Engine().Schedule(1, rt.Engine().Halt)
			return nil
		})
	if err == nil {
		t.Fatal("truncated run reported success")
	}
}

// TestHarnessRejectsNonFiniteOptions: a NaN or infinite float option
// is an error at the public boundary, never a silently clamped run.
func TestHarnessRejectsNonFiniteOptions(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Options, float64)
	}{
		{"Gain", func(o *Options, v float64) { o.Gain = v }},
		{"LrefScale", func(o *Options, v float64) { o.LrefScale = v }},
		{"Scale", func(o *Options, v float64) { o.Scale = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opts := Options{Scale: testScale, Policy: cluster.SFQD2}
			f.set(&opts, v)
			_, err := Run(opts, []Entry{teraGen(testScale, 1)})
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %g: err = %v, want an error naming the option", f.name, v, err)
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(Options{Scale: 0.02, Policy: cluster.Native}, []Entry{teraSort(0.02, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanThroughput() <= 0 {
		t.Error("MeanThroughput zero")
	}
	jr := res.JobResult("terasort")
	if jr.Runtime() <= 0 {
		t.Error("runtime zero")
	}
	if len(res.PerAppBytes) != 1 {
		t.Errorf("apps = %v", res.PerAppBytes)
	}
	defer func() {
		if recover() == nil {
			t.Error("JobResult for unknown name did not panic")
		}
	}()
	res.JobResult("nope")
}
