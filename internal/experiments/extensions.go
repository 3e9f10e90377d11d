package experiments

import (
	"fmt"
	"strings"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/workloads"
)

// The extensions implement studies the paper defers to future work or
// sketches in its discussion (Section 9).

// SpectrumRow is one policy on the isolation-vs-utilization spectrum.
type SpectrumRow struct {
	Policy     string
	WCSlowdown float64
	Throughput float64 // MB/s
}

// SpectrumResult places the full scheduler family on Section 9's
// spectrum: native (pure work conservation, no isolation) — SFQ(D2) —
// static SFQ(D) — hard reservations (strict isolation, no work
// conservation, "may severely underutilize the storage").
type SpectrumResult struct {
	Scale        float64
	StandaloneWC float64
	Rows         []SpectrumRow
}

// ExtSpectrum runs the WordCount-vs-TeraGen scenario across the whole
// policy family, including the non-work-conserving reservation extreme.
func ExtSpectrum(scale float64) (*SpectrumResult, error) {
	sa, err := standalone(Options{Scale: scale, Policy: cluster.Native}, wordCount(scale, 1))
	if err != nil {
		return nil, err
	}
	out := &SpectrumResult{Scale: scale, StandaloneWC: sa.Runtime()}

	type cfg struct {
		name string
		opts Options
	}
	// Reservation rates per device (cost units/s): WordCount gets a
	// generous 80 MB/s everywhere, TeraGen 50 MB/s — a strict split of
	// the ~130 MB/s disks.
	wcApp, tgApp := iosched.AppID("wordcount"), iosched.AppID("teragen")
	cases := []cfg{
		{"native", Options{Scale: scale, Policy: cluster.Native}},
		{"sfq(d2)", Options{Scale: scale, Policy: cluster.SFQD2}},
		{"sfq(d=2)", Options{Scale: scale, Policy: cluster.SFQD, SFQDepth: 2}},
		{"reservation", Options{Scale: scale, Policy: cluster.Reserve,
			ReservationRates: map[iosched.AppID]float64{wcApp: 80e6, tgApp: 50e6},
		}},
	}
	for _, c := range cases {
		wc := wordCount(scale, isolationWeightWC)
		wc.Spec.App = wcApp
		tg := teraGen(scale, 1)
		tg.Spec.App = tgApp
		res, err := Run(c.opts, []Entry{wc, tg})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, SpectrumRow{
			Policy:     c.name,
			WCSlowdown: metrics.Slowdown(res.JobResult("wordcount").Runtime(), sa.Runtime()),
			Throughput: res.MeanThroughput() / 1e6,
		})
	}
	return out, nil
}

// String renders the spectrum.
func (r *SpectrumResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: isolation-vs-utilization spectrum (paper §9, scale %.3g)\n", r.Scale)
	fmt.Fprintf(&b, "  standalone WordCount: %.1fs\n", r.StandaloneWC)
	fmt.Fprintf(&b, "  %-12s %10s %12s\n", "policy", "wc-slow", "tput(MB/s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %9.0f%% %12.1f\n", row.Policy, row.WCSlowdown*100, row.Throughput)
	}
	b.WriteString("  (reservations: strict isolation, wasted bandwidth; native: the reverse;\n")
	b.WriteString("   SFQ(D2) sits between, work-conserving with near-best isolation)\n")
	return b.String()
}

// NetworkSchedResult compares IBIS with and without the OpenFlow-style
// NIC scheduling extension (Section 3's future work) on a
// network-heavy pairing: a weighted TeraSort against a 3×-replicated
// TeraGen whose pipeline floods the NICs.
type NetworkSchedResult struct {
	Scale        float64
	StandaloneTS float64
	// StorageOnly / WithNetSched are the TeraSort slowdowns.
	StorageOnly  float64
	WithNetSched float64
}

// ExtNetworkSched runs the comparison.
func ExtNetworkSched(scale float64) (*NetworkSchedResult, error) {
	sa, err := standalone(Options{Scale: scale, Policy: cluster.Native}, fullCores(teraSortContender(scale, 1)))
	if err != nil {
		return nil, err
	}
	out := &NetworkSchedResult{Scale: scale, StandaloneTS: sa.Runtime()}

	run := func(netSched bool) (float64, error) {
		ts := withWeight(teraSortContender(scale, 32), 32)
		tg := fig11TeraGen(scale, 1) // replication 3: heavy NIC traffic
		res, err := Run(Options{
			Scale: scale, Policy: cluster.SFQD2,
			ScheduleNetwork: netSched,
		}, []Entry{ts, tg})
		if err != nil {
			return 0, err
		}
		return metrics.Slowdown(res.JobResult("terasort").Runtime(), sa.Runtime()), nil
	}
	if out.StorageOnly, err = run(false); err != nil {
		return nil, err
	}
	if out.WithNetSched, err = run(true); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the comparison.
func (r *NetworkSchedResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: NIC scheduling (paper §3 future work, scale %.3g)\n", r.Scale)
	fmt.Fprintf(&b, "  terasort slowdown, storage-endpoint control only: %.0f%%\n", r.StorageOnly*100)
	fmt.Fprintf(&b, "  terasort slowdown, + weighted NIC scheduling:     %.0f%%\n", r.WithNetSched*100)
	b.WriteString("  (the paper argues storage-endpoint control suffices because storage\n")
	b.WriteString("   saturates before the network; the extension quantifies the residual)\n")
	return b.String()
}

// TeraSortSweepRow is one input size of the scaling study.
type TeraSortSweepRow struct {
	InputGB float64
	Runtime float64
	// MBPerSec is input bytes / runtime — the effective sort rate.
	MBPerSec float64
}

// TeraSortSweepResult covers the paper's stated TeraSort range
// (50–400 GB input) standalone, verifying the engine scales the way a
// sort should: near-linearly once the cluster pipelines fill.
type TeraSortSweepResult struct {
	Scale float64
	Rows  []TeraSortSweepRow
}

// ExtTeraSortSweep runs the sweep.
func ExtTeraSortSweep(scale float64) (*TeraSortSweepResult, error) {
	out := &TeraSortSweepResult{Scale: scale}
	for _, gb := range []float64{50, 100, 200, 400} {
		spec := workloads.TeraSortSpec(gb*1e9*scale, 24)
		spec.Weight = 1
		res, err := Run(Options{Scale: scale, Policy: cluster.Native}, []Entry{{Spec: spec}})
		if err != nil {
			return nil, err
		}
		rt := res.JobResult("terasort").Runtime()
		out.Rows = append(out.Rows, TeraSortSweepRow{
			InputGB:  gb,
			Runtime:  rt,
			MBPerSec: gb * 1e9 * scale / rt / 1e6,
		})
	}
	return out, nil
}

// String renders the sweep.
func (r *TeraSortSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: TeraSort input sweep 50–400 GB (paper's stated range, scale %.3g)\n", r.Scale)
	fmt.Fprintf(&b, "  %-9s %12s %14s\n", "input", "runtime(s)", "rate(MB/s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6.0fGB %12.1f %14.1f\n", row.InputGB, row.Runtime, row.MBPerSec)
	}
	b.WriteString("  (rate should flatten once the waves pipeline — near-linear scaling)\n")
	return b.String()
}

// SSDPromotionResult studies the read-promotion effect the paper
// attributes its surprising SSD result to (Section 7.2): when writes
// are slow and expensive, shrinking D lets backlogged reads dispatch
// ahead of writes. We measure the mean read latency of a read-heavy
// flow against a write-heavy flow at different depths on the SSD.
type SSDPromotionResult struct {
	Rows []SSDPromotionRow
}

// SSDPromotionRow is one depth point.
type SSDPromotionRow struct {
	Depth         int
	ReadLatencyMS float64
	ReadMBps      float64
	WriteMBps     float64
}

// ExtSSDPromotion runs the microbenchmark on a single SSD.
func ExtSSDPromotion() (*SSDPromotionResult, error) {
	out := &SSDPromotionResult{}
	for _, depth := range []int{1, 2, 4, 8, 12} {
		row, err := ssdPromotionPoint(depth)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func ssdPromotionPoint(depth int) (SSDPromotionRow, error) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "ssd", storage.SSDSpec())
	s, err := iosched.NewSFQD(eng, dev, depth)
	if err != nil {
		return SSDPromotionRow{}, err
	}
	l := newClosedLoop(eng, 30)
	var reads, writes tally
	// Equal weights: the promotion effect is purely about write cost. A
	// fresh tree binds each app at weight 1 on its first request.
	tree := shares.NewTree()
	l.keep(s.Submit, &reads, 2, iosched.Request{App: "reader", Shares: tree, Class: iosched.PersistentRead, Size: 2e6})
	l.keep(s.Submit, &writes, 8, iosched.Request{App: "writer", Shares: tree, Class: iosched.PersistentWrite, Size: 2e6})
	if err := l.run(); err != nil {
		return SSDPromotionRow{}, err
	}
	row := SSDPromotionRow{Depth: depth}
	if reads.n > 0 {
		row.ReadLatencyMS = reads.latency / float64(reads.n) * 1e3
	}
	row.ReadMBps = reads.bytes / 30 / 1e6
	row.WriteMBps = writes.bytes / 30 / 1e6
	return row, nil
}

// String renders the study.
func (r *SSDPromotionResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: SSD read promotion (paper §7.2's future-work observation)\n")
	b.WriteString("  depth   read-lat(ms)   read(MB/s)   write(MB/s)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d %14.1f %12.1f %13.1f\n",
			row.Depth, row.ReadLatencyMS, row.ReadMBps, row.WriteMBps)
	}
	b.WriteString("  (smaller D ⇒ reads overtake expensive writes ⇒ lower read latency)\n")
	return b.String()
}
