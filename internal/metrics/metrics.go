// Package metrics provides the measurement primitives behind the paper's
// figures: windowed throughput time series, latency statistics, CDFs,
// and slowdown computations.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// TimeSeries accumulates values into fixed-width time bins. It backs the
// throughput-versus-time plots (Figure 2) and the depth/latency traces
// (Figure 7).
type TimeSeries struct {
	binWidth float64
	bins     []float64
}

// NewTimeSeries creates a series with the given bin width in seconds.
func NewTimeSeries(binWidth float64) *TimeSeries {
	if binWidth <= 0 {
		panic(fmt.Sprintf("metrics: bin width %g must be positive", binWidth))
	}
	return &TimeSeries{binWidth: binWidth}
}

// BinWidth returns the bin width in seconds.
func (ts *TimeSeries) BinWidth() float64 { return ts.binWidth }

// Add accumulates value into the bin containing time t (seconds).
func (ts *TimeSeries) Add(t, value float64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / ts.binWidth)
	for idx >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += value
}

// Merge adds o's bins into ts, bin by bin. Both series must have the
// same bin width.
func (ts *TimeSeries) Merge(o *TimeSeries) {
	if o.binWidth != ts.binWidth {
		panic(fmt.Sprintf("metrics: merging bin width %g into %g", o.binWidth, ts.binWidth))
	}
	for len(ts.bins) < len(o.bins) {
		ts.bins = append(ts.bins, 0)
	}
	for i, v := range o.bins {
		ts.bins[i] += v
	}
}

// Bins returns a copy of the accumulated bins.
func (ts *TimeSeries) Bins() []float64 {
	out := make([]float64, len(ts.bins))
	copy(out, ts.bins)
	return out
}

// Rate returns the per-second rates (bin value divided by bin width).
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.bins))
	for i, v := range ts.bins {
		out[i] = v / ts.binWidth
	}
	return out
}

// Total returns the sum over all bins.
func (ts *TimeSeries) Total() float64 {
	t := 0.0
	for _, v := range ts.bins {
		t += v
	}
	return t
}

// PeakRate returns the maximum per-second rate over all bins.
func (ts *TimeSeries) PeakRate() float64 {
	peak := 0.0
	for _, v := range ts.bins {
		if r := v / ts.binWidth; r > peak {
			peak = r
		}
	}
	return peak
}

// MeanRateOverSpan returns total divided by the span [0, end of last
// non-empty bin]; zero if empty.
func (ts *TimeSeries) MeanRateOverSpan() float64 {
	last := -1
	for i, v := range ts.bins {
		if v > 0 {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	span := float64(last+1) * ts.binWidth
	return ts.Total() / span
}

// Distribution summarizes a sample set; it backs the Facebook2009 CDF
// (Figure 9) and latency statistics.
type Distribution struct {
	samples []float64
	sorted  bool
}

// NewDistribution returns an empty sample set.
func NewDistribution() *Distribution { return &Distribution{} }

// Add records one sample.
func (d *Distribution) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Merge appends o's samples to d, as if each had been added to d in
// o's insertion order. Call it before reading a statistic from o:
// reads sort o's samples in place.
func (d *Distribution) Merge(o *Distribution) {
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

// N returns the sample count.
func (d *Distribution) N() int { return len(d.samples) }

// Mean returns the arithmetic mean (0 for an empty set).
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// Min returns the smallest sample (0 for an empty set).
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample (0 for an empty set).
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) using nearest-
// rank interpolation; 0 for an empty set.
func (d *Distribution) Percentile(p float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// CDF returns (value, cumulative fraction) pairs over the sorted
// samples — the exact series plotted in Figure 9.
func (d *Distribution) CDF() (values, fractions []float64) {
	n := len(d.samples)
	if n == 0 {
		return nil, nil
	}
	d.ensureSorted()
	values = make([]float64, n)
	fractions = make([]float64, n)
	copy(values, d.samples)
	for i := range fractions {
		fractions[i] = float64(i+1) / float64(n)
	}
	return values, fractions
}

// FractionBelow returns the fraction of samples <= v.
func (d *Distribution) FractionBelow(v float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(n)
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// CoordinationHealth aggregates the fault-tolerance counters of the
// coordination plane: exchange attempts and outcomes, retry/backoff
// activity, and the degradation state machine's transitions. One value
// per broker client; Merge folds clients into a cluster-wide view.
type CoordinationHealth struct {
	// Attempts counts exchange round trips initiated (including
	// retries); Successes those whose response was applied.
	Attempts  uint64
	Successes uint64
	// Failures counts attempts that errored (broker unavailable,
	// message lost) and Timeouts those abandoned because the response
	// exceeded the retry policy's timeout.
	Failures uint64
	Timeouts uint64
	// Retries counts backoff-scheduled re-attempts; SkippedRounds
	// counts periodic rounds abandoned after exhausting retries (or
	// skipped because a previous round was still retrying).
	Retries       uint64
	SkippedRounds uint64
	// StaleDrops counts responses discarded on arrival: out of order
	// behind a newer applied response, late past the timeout, or
	// obsoleted by a restart.
	StaleDrops uint64
	// Degradations and Recoveries count transitions into and out of
	// the degraded (local-fairness-only) mode; DegradedTime is the
	// total virtual seconds spent degraded.
	Degradations uint64
	Recoveries   uint64
	DegradedTime float64
	// Restarts counts injected scheduler restarts; ReRegisters counts
	// completed re-registration handshakes after them.
	Restarts    uint64
	ReRegisters uint64
}

// Merge accumulates o into h.
func (h *CoordinationHealth) Merge(o CoordinationHealth) {
	h.Attempts += o.Attempts
	h.Successes += o.Successes
	h.Failures += o.Failures
	h.Timeouts += o.Timeouts
	h.Retries += o.Retries
	h.SkippedRounds += o.SkippedRounds
	h.StaleDrops += o.StaleDrops
	h.Degradations += o.Degradations
	h.Recoveries += o.Recoveries
	h.DegradedTime += o.DegradedTime
	h.Restarts += o.Restarts
	h.ReRegisters += o.ReRegisters
}

// String renders the counters on one line.
func (h CoordinationHealth) String() string {
	return fmt.Sprintf(
		"attempts=%d ok=%d fail=%d timeout=%d retries=%d skipped=%d stale=%d degraded=%d recovered=%d degraded-time=%.1fs restarts=%d reregisters=%d",
		h.Attempts, h.Successes, h.Failures, h.Timeouts, h.Retries,
		h.SkippedRounds, h.StaleDrops, h.Degradations, h.Recoveries,
		h.DegradedTime, h.Restarts, h.ReRegisters)
}

// Slowdown returns the fractional slowdown (runtime/standalone − 1),
// the metric on top of the bars in Figures 3, 6, 11 and 12: WordCount
// "slowed down by 107%" means its runtime was 2.07× the standalone run.
func Slowdown(runtime, standalone float64) float64 {
	if standalone <= 0 {
		return 0
	}
	return runtime/standalone - 1
}

// RelativePerformance returns standalone/runtime, the "relative
// application performance" metric of Figure 10 (1.0 = as fast as
// running alone).
func RelativePerformance(runtime, standalone float64) float64 {
	if runtime <= 0 {
		return 0
	}
	return standalone / runtime
}
