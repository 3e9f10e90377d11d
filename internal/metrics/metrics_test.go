package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Add(0, 5)
	ts.Add(9.99, 5)
	ts.Add(10, 7)
	ts.Add(35, 3)
	bins := ts.Bins()
	want := []float64{10, 7, 0, 3}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v, want %v", bins, want)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestTimeSeriesRateAndTotal(t *testing.T) {
	ts := NewTimeSeries(2)
	ts.Add(0, 10)
	ts.Add(3, 30)
	if got := ts.Total(); got != 40 {
		t.Fatalf("Total = %v", got)
	}
	rate := ts.Rate()
	if rate[0] != 5 || rate[1] != 15 {
		t.Fatalf("Rate = %v", rate)
	}
	if got := ts.PeakRate(); got != 15 {
		t.Fatalf("PeakRate = %v", got)
	}
	if got := ts.MeanRateOverSpan(); got != 10 {
		t.Fatalf("MeanRateOverSpan = %v (total 40 over 4s)", got)
	}
}

func TestTimeSeriesNegativeTimeClamped(t *testing.T) {
	ts := NewTimeSeries(1)
	ts.Add(-5, 3)
	if ts.Bins()[0] != 3 {
		t.Fatal("negative time not clamped into first bin")
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(1)
	if ts.Total() != 0 || ts.PeakRate() != 0 || ts.MeanRateOverSpan() != 0 {
		t.Fatal("empty series nonzero")
	}
	if len(ts.Bins()) != 0 {
		t.Fatal("empty series has bins")
	}
}

func TestTimeSeriesInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width accepted")
		}
	}()
	NewTimeSeries(0)
}

// TestTimeSeriesMerge folds a shorter and a longer series into one:
// bins add position by position and the result extends to the longer
// series, as if every sample had been added to one series.
func TestTimeSeriesMerge(t *testing.T) {
	a, b, whole := NewTimeSeries(2), NewTimeSeries(2), NewTimeSeries(2)
	for _, s := range [][2]float64{{0, 1}, {3, 2}} {
		a.Add(s[0], s[1])
		whole.Add(s[0], s[1])
	}
	for _, s := range [][2]float64{{1, 4}, {7, 8}} {
		b.Add(s[0], s[1])
		whole.Add(s[0], s[1])
	}
	merged := NewTimeSeries(2)
	merged.Merge(a)
	merged.Merge(b)
	got, want := merged.Bins(), whole.Bins()
	if len(got) != len(want) {
		t.Fatalf("merged bins %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged bins %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging a different bin width was accepted")
		}
	}()
	merged.Merge(NewTimeSeries(1))
}

// TestDistributionMerge checks that merged samples keep their order
// (Mean sums in insertion order) and join the sorted statistics.
func TestDistributionMerge(t *testing.T) {
	a, b := NewDistribution(), NewDistribution()
	a.Add(3)
	b.Add(1)
	b.Add(2)
	d := NewDistribution()
	d.Merge(a)
	d.Merge(b)
	if d.N() != 3 || d.Min() != 1 || d.Max() != 3 || d.Mean() != 2 {
		t.Fatalf("merged N=%d min=%v max=%v mean=%v, want 3, 1, 3, 2", d.N(), d.Min(), d.Max(), d.Mean())
	}
}

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution()
	for _, v := range []float64{4, 1, 3, 2, 5} {
		d.Add(v)
	}
	if d.N() != 5 || d.Mean() != 3 || d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("stats: n=%d mean=%v min=%v max=%v", d.N(), d.Mean(), d.Min(), d.Max())
	}
	if got := d.Percentile(50); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution()
	if d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty distribution nonzero")
	}
	v, f := d.CDF()
	if v != nil || f != nil {
		t.Fatal("empty CDF non-nil")
	}
	if d.FractionBelow(10) != 0 {
		t.Fatal("empty FractionBelow nonzero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	d := NewDistribution()
	d.Add(0)
	d.Add(10)
	if got := d.Percentile(50); got != 5 {
		t.Fatalf("p50 of {0,10} = %v, want 5", got)
	}
	if got := d.Percentile(90); math.Abs(got-9) > 1e-12 {
		t.Fatalf("p90 of {0,10} = %v, want 9", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	d := NewDistribution()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d.Add(rng.Float64() * 50)
	}
	vals, fracs := d.CDF()
	if !sort.Float64sAreSorted(vals) {
		t.Fatal("CDF values not sorted")
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] <= fracs[i-1] {
			t.Fatal("CDF fractions not strictly increasing")
		}
	}
	if fracs[len(fracs)-1] != 1 {
		t.Fatalf("final fraction = %v, want 1", fracs[len(fracs)-1])
	}
}

func TestFractionBelow(t *testing.T) {
	d := NewDistribution()
	for _, v := range []float64{1, 2, 3, 4} {
		d.Add(v)
	}
	cases := []struct{ v, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := d.FractionBelow(c.v); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSlowdownAndRelativePerformance(t *testing.T) {
	if got := Slowdown(207, 100); math.Abs(got-1.07) > 1e-12 {
		t.Fatalf("Slowdown = %v, want 1.07", got)
	}
	if got := Slowdown(100, 0); got != 0 {
		t.Fatalf("Slowdown with zero baseline = %v", got)
	}
	if got := RelativePerformance(200, 100); got != 0.5 {
		t.Fatalf("RelativePerformance = %v, want 0.5", got)
	}
	if got := RelativePerformance(0, 100); got != 0 {
		t.Fatalf("RelativePerformance with zero runtime = %v", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution()
		for _, r := range raw {
			d.Add(float64(r))
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := d.Percentile(a), d.Percentile(b)
		return pa <= pb+1e-9 && pa >= d.Min()-1e-9 && pb <= d.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: time series total equals the sum of added values.
func TestPropertyTimeSeriesConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		ts := NewTimeSeries(3)
		sum := 0.0
		for i, r := range raw {
			v := float64(r)
			sum += v
			ts.Add(float64(i%97), v)
		}
		return math.Abs(ts.Total()-sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
