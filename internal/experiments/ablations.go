package experiments

import (
	"fmt"
	"math"
	"strings"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
)

// The ablations quantify the design choices DESIGN.md calls out and the
// tunables the paper's Section 9 discusses. None have a direct figure
// in the paper; they extend the evaluation.

// AblationRow is one point of a single-parameter sweep.
type AblationRow struct {
	Param      string
	WCSlowdown float64
	Throughput float64 // MB/s
	Extra      float64 // sweep-specific (see each driver)
}

// AblationResult is a generic sweep outcome.
type AblationResult struct {
	Name  string
	Scale float64
	Rows  []AblationRow
	Note  string
}

// String renders the sweep.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %s (scale %.3g)\n", r.Name, r.Scale)
	fmt.Fprintf(&b, "  %-14s %10s %12s %12s\n", "param", "wc-slow", "tput(MB/s)", "extra")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %9.0f%% %12.1f %12.3f\n",
			row.Param, row.WCSlowdown*100, row.Throughput, row.Extra)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "  %s\n", r.Note)
	}
	return b.String()
}

// AblationWriteAhead sweeps the HDFS client write-behind window: the
// deeper the uncontrolled client pipeline, the worse native
// interference gets — the motivation's mechanism quantified.
func AblationWriteAhead(scale float64) (*AblationResult, error) {
	sa, err := standalone(Options{Scale: scale, Policy: cluster.Native}, wordCount(scale, 1))
	if err != nil {
		return nil, err
	}
	out := &AblationResult{
		Name: "write-ahead window (native)", Scale: scale,
		Note: "extra = TeraGen runtime (s); deeper client pipelines inflate native interference",
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		res, err := Run(Options{Scale: scale, Policy: cluster.Native, WriteAhead: w},
			[]Entry{wordCount(scale, 1), teraGen(scale, 1)})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Param:      fmt.Sprintf("w=%d", w),
			WCSlowdown: metrics.Slowdown(res.JobResult("wordcount").Runtime(), sa.Runtime()),
			Throughput: res.MeanThroughput() / 1e6,
			Extra:      res.JobResult("teragen").Runtime(),
		})
	}
	return out, nil
}

// AblationLref sweeps the SFQ(D2) reference latency — the Section 9
// knob: "further improvement is possible by trading resource
// utilization for performance isolation ... by adjusting Lref".
// Smaller Lref ⇒ shallower equilibrium depth ⇒ stronger isolation,
// lower utilization.
func AblationLref(scale float64) (*AblationResult, error) {
	sa, err := standalone(Options{Scale: scale, Policy: cluster.Native}, wordCount(scale, 1))
	if err != nil {
		return nil, err
	}
	out := &AblationResult{
		Name: "SFQ(D2) reference latency", Scale: scale,
		Note: "extra = mean depth; Lref trades isolation against utilization (paper §9)",
	}
	for _, m := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		var depthSum, depthN float64
		res, err := runWithTrace(Options{
			Scale: scale, Policy: cluster.SFQD2, LrefScale: m, CaptureDepthTrace: true,
		}, []Entry{wordCount(scale, isolationWeightWC), teraGen(scale, 1)}, func(p iosched.TracePoint) {
			if p.Samples > 0 {
				depthSum += float64(p.Depth)
				depthN++
			}
		})
		if err != nil {
			return nil, err
		}
		meanDepth := 0.0
		if depthN > 0 {
			meanDepth = depthSum / depthN
		}
		out.Rows = append(out.Rows, AblationRow{
			Param:      fmt.Sprintf("lref×%g", m),
			WCSlowdown: metrics.Slowdown(res.JobResult("wordcount").Runtime(), sa.Runtime()),
			Throughput: res.MeanThroughput() / 1e6,
			Extra:      meanDepth,
		})
	}
	return out, nil
}

// runWithTrace is Run plus a tap on the depth trace.
func runWithTrace(opts Options, entries []Entry, tap func(iosched.TracePoint)) (*Result, error) {
	res, err := Run(opts, entries)
	if err != nil {
		return nil, err
	}
	for _, p := range res.DepthTrace {
		tap(p)
	}
	return res, nil
}

// AblationGain sweeps the controller's integral gain: too low and the
// depth never converges within the run; too high and it slams between
// the bounds. The run-level outcome is robust across a wide range —
// the paper's controller needed no per-workload tuning.
func AblationGain(scale float64) (*AblationResult, error) {
	sa, err := standalone(Options{Scale: scale, Policy: cluster.Native}, wordCount(scale, 1))
	if err != nil {
		return nil, err
	}
	out := &AblationResult{
		Name: "SFQ(D2) controller gain", Scale: scale,
		Note: "extra = depth std-dev over busy periods; outcomes are robust across ~2 decades of K",
	}
	for _, k := range []float64{10, 40, 120, 400, 1200} {
		var depths []float64
		res, err := runWithTrace(Options{
			Scale: scale, Policy: cluster.SFQD2, Gain: k, CaptureDepthTrace: true,
		}, []Entry{wordCount(scale, isolationWeightWC), teraGen(scale, 1)}, func(p iosched.TracePoint) {
			if p.Samples > 0 {
				depths = append(depths, float64(p.Depth))
			}
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Param:      fmt.Sprintf("K=%g", k),
			WCSlowdown: metrics.Slowdown(res.JobResult("wordcount").Runtime(), sa.Runtime()),
			Throughput: res.MeanThroughput() / 1e6,
			Extra:      stddev(depths),
		})
	}
	return out, nil
}

func stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := 0.0
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	s := 0.0
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(v)-1))
}

// CoordPeriodRow is one point of the coordination-period sweep.
type CoordPeriodRow struct {
	PeriodSeconds float64
	ServiceRatio  float64 // wide/narrow in the uneven-presence micro
	Exchanges     uint64
}

// CoordPeriodResult quantifies Section 5's tradeoff: "more frequent
// coordination reduces transient unfairness but increases the
// overhead; and vice versa".
type CoordPeriodResult struct {
	Rows []CoordPeriodRow
}

// AblationCoordPeriod sweeps the broker exchange period on the
// uneven-presence microbenchmark.
func AblationCoordPeriod() (*CoordPeriodResult, error) {
	out := &CoordPeriodResult{}
	for _, period := range []float64{0.25, 1, 4, 16} {
		ratio, exchanges, err := microRun(true, period, 8)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CoordPeriodRow{
			PeriodSeconds: period,
			ServiceRatio:  ratio,
			Exchanges:     exchanges,
		})
	}
	return out, nil
}

// String renders the sweep.
func (r *CoordPeriodResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: coordination period (uneven-presence micro, ideal ratio ≈3.0)\n")
	fmt.Fprintf(&b, "  %-10s %14s %12s\n", "period(s)", "service-ratio", "exchanges")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10g %14.2f %12d\n", row.PeriodSeconds, row.ServiceRatio, row.Exchanges)
	}
	b.WriteString("  (paper §5: frequent coordination → less transient unfairness, more traffic)\n")
	return b.String()
}

// ScalabilityRow is one cluster size of the broker-scalability study.
type ScalabilityRow struct {
	Nodes        int
	ServiceRatio float64
	Exchanges    uint64
	BytesPerSec  float64
}

// ScalabilityResult extends Section 9's scalability discussion: broker
// traffic grows linearly with scheduler count and stays tiny, while
// total-service fairness holds as the cluster grows.
type ScalabilityResult struct {
	Rows []ScalabilityRow
}

// ExtScalability runs the uneven-presence micro at growing cluster
// sizes.
func ExtScalability() (*ScalabilityResult, error) {
	out := &ScalabilityResult{}
	for _, n := range []int{8, 16, 32, 64} {
		ratio, exchanges, err := microRun(true, 1, n)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ScalabilityRow{
			Nodes:        n,
			ServiceRatio: ratio,
			Exchanges:    exchanges,
			BytesPerSec:  float64(exchanges) * 24 / 60, // ≈24 B/entry over the 60 s run
		})
	}
	return out, nil
}

// String renders the study.
func (r *ScalabilityResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: broker scalability (uneven presence, app on 1/4 of nodes)\n")
	fmt.Fprintf(&b, "  %-7s %14s %12s %14s\n", "nodes", "service-ratio", "exchanges", "≈bytes/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-7d %14.2f %12d %14.1f\n", row.Nodes, row.ServiceRatio, row.Exchanges, row.BytesPerSec)
	}
	b.WriteString("  (traffic linear in schedulers, KB/s at 64 nodes; fairness holds — paper §9)\n")
	return b.String()
}
