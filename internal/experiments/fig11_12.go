package experiments

import (
	"fmt"
	"math"
	"strings"

	"ibis/internal/cluster"
	"ibis/internal/metrics"
	"ibis/internal/sim"
)

// Fig11Row is one configuration of the proportional-slowdown study.
type Fig11Row struct {
	Config     string
	TSSlowdown float64
	TGSlowdown float64
	// PaperTS / PaperTG are the published slowdowns.
	PaperTS float64
	PaperTG float64
}

// Gap returns |TS−TG| slowdown — zero is perfect equal slowdown.
func (r Fig11Row) Gap() float64 { return math.Abs(r.TSSlowdown - r.TGSlowdown) }

// Avg returns the mean slowdown of the two applications.
func (r Fig11Row) Avg() float64 { return (r.TSSlowdown + r.TGSlowdown) / 2 }

// Fig11Result reproduces Figure 11: achieving equal slowdown for
// TeraSort and TeraGen. The paper's administrator tunes allocation
// ratios until the slowdowns equalize; the experiment performs that
// tuning as a sweep and reports the best configuration each mechanism
// can reach — CPU-share tuning alone (Fair Scheduler) versus joint
// CPU + IBIS I/O-weight tuning.
type Fig11Result struct {
	Scale        float64
	StandaloneTS float64
	StandaloneTG float64
	// FSBest is the best equal-slowdown point reachable with CPU shares
	// only (paper: 83%/61%); FSIBISBest adds IBIS I/O weights
	// (paper: perfect 42%/42%).
	FSBest     Fig11Row
	FSIBISBest Fig11Row
	// Swept records every configuration tried, for the full picture.
	Swept []Fig11Row
}

// fig11TeraGen builds the TeraGen entry with Table 1's replication 3 —
// the proportional-slowdown experiments follow the stock configuration.
func fig11TeraGen(scale, weight float64) Entry {
	e := teraGen(scale, weight)
	e.Spec.OutputReplication = 0 // namenode default (3)
	return e
}

// Fig11 sweeps the tuning space.
func Fig11(scale float64) (*Fig11Result, error) {
	saTS, err := standalone(Options{Scale: scale, Policy: cluster.Native}, fullCores(teraSortContender(scale, 1)))
	if err != nil {
		return nil, err
	}
	saTG, err := standalone(Options{Scale: scale, Policy: cluster.Native}, fullCores(fig11TeraGen(scale, 1)))
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{Scale: scale, StandaloneTS: saTS.Runtime(), StandaloneTG: saTG.Runtime()}

	measure := func(name string, policy cluster.Policy, tsCores, tgCores int, tsW, tgW float64, coordinate bool) (Fig11Row, error) {
		ts := withShare(withWeight(teraSortContender(scale, tsW), tsW), tsCores)
		tg := withShare(withWeight(fig11TeraGen(scale, tgW), tgW), tgCores)
		res, err := Run(Options{Scale: scale, Policy: policy, Coordinate: coordinate},
			[]Entry{ts, tg})
		if err != nil {
			return Fig11Row{}, err
		}
		return Fig11Row{
			Config:     name,
			TSSlowdown: metrics.Slowdown(res.JobResult("terasort").Runtime(), saTS.Runtime()),
			TGSlowdown: metrics.Slowdown(res.JobResult("teragen").Runtime(), saTG.Runtime()),
		}, nil
	}

	// Phase 1: Fair Scheduler CPU shares only (native I/O path).
	best := Fig11Row{TSSlowdown: math.Inf(1)}
	for _, split := range [][2]int{{80, 16}, {72, 24}, {64, 32}, {48, 48}, {32, 64}} {
		row, err := measure(fmt.Sprintf("fs-%d:%d", split[0], split[1]),
			cluster.Native, split[0], split[1], 1, 1, false)
		if err != nil {
			return nil, err
		}
		out.Swept = append(out.Swept, row)
		if row.Gap() < best.Gap() || math.IsInf(best.TSSlowdown, 1) {
			best = row
		}
	}
	best.PaperTS, best.PaperTG = 0.83, 0.61
	out.FSBest = best

	// Phase 2: joint CPU + IBIS I/O-weight tuning.
	best = Fig11Row{TSSlowdown: math.Inf(1)}
	for _, split := range [][2]int{{72, 24}, {64, 32}, {48, 48}} {
		for _, w := range [][2]float64{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {16, 1}, {32, 1}} {
			row, err := measure(
				fmt.Sprintf("fs-%d:%d+ibis-%g:%g", split[0], split[1], w[0], w[1]),
				cluster.SFQD2, split[0], split[1], w[0], w[1], true)
			if err != nil {
				return nil, err
			}
			out.Swept = append(out.Swept, row)
			if row.Gap() < best.Gap() || math.IsInf(best.TSSlowdown, 1) {
				best = row
			}
		}
	}
	best.PaperTS, best.PaperTG = 0.42, 0.42
	out.FSIBISBest = best
	return out, nil
}

// String renders the comparison.
func (r *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: proportional (equal) slowdown of TeraSort vs TeraGen (scale %.3g)\n", r.Scale)
	fmt.Fprintf(&b, "  standalone: terasort %.1fs, teragen %.1fs\n", r.StandaloneTS, r.StandaloneTG)
	fmt.Fprintf(&b, "  %-22s %8s %8s %8s %8s %8s\n", "best config", "ts-slow", "tg-slow", "gap", "paper-ts", "paper-tg")
	for _, row := range []Fig11Row{r.FSBest, r.FSIBISBest} {
		fmt.Fprintf(&b, "  %-22s %7.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%%\n",
			row.Config, row.TSSlowdown*100, row.TGSlowdown*100, row.Gap()*100,
			row.PaperTS*100, row.PaperTG*100)
	}
	fmt.Fprintf(&b, "  swept %d configurations; paper shape: joint tuning reaches a smaller gap\n", len(r.Swept))
	return b.String()
}

// Fig12Result reproduces Figure 12: the benefit of distributed
// scheduling coordination (Sync vs No Sync). Two measurements:
//
//  1. The paper's macro experiment — TeraSort vs TeraGen, CPU 1:1, I/O
//     32:1 favoring TeraSort, SFQ(D2) with and without the broker.
//  2. A total-service microbenchmark isolating what coordination
//     provides: an application present on only a quarter of the
//     datanodes versus one backlogged everywhere, equal weights. Local
//     fairness alone gives the narrow app ≈ its share of its own nodes;
//     coordination raises it to its share of the *total* service.
type Fig12Result struct {
	Scale        float64
	StandaloneTS float64
	StandaloneTG float64
	NoSync       Fig11Row
	Sync         Fig11Row
	// Micro ratios: wide-app service ÷ narrow-app service, equal
	// weights (ideal total-service sharing → 1.0).
	MicroNoSyncRatio float64
	MicroSyncRatio   float64
}

// Fig12 runs the coordination ablation.
func Fig12(scale float64) (*Fig12Result, error) {
	saTS, err := standalone(Options{Scale: scale, Policy: cluster.Native}, fullCores(teraSortContender(scale, 1)))
	if err != nil {
		return nil, err
	}
	saTG, err := standalone(Options{Scale: scale, Policy: cluster.Native}, fullCores(fig11TeraGen(scale, 1)))
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{Scale: scale, StandaloneTS: saTS.Runtime(), StandaloneTG: saTG.Runtime()}

	run := func(coordinate bool) (Fig11Row, error) {
		ts := withWeight(teraSortContender(scale, 32), 32)
		tg := fig11TeraGen(scale, 1)
		res, err := Run(Options{Scale: scale, Policy: cluster.SFQD2, Coordinate: coordinate},
			[]Entry{ts, tg})
		if err != nil {
			return Fig11Row{}, err
		}
		name := "no-sync"
		if coordinate {
			name = "sync"
		}
		return Fig11Row{
			Config:     name,
			TSSlowdown: metrics.Slowdown(res.JobResult("terasort").Runtime(), saTS.Runtime()),
			TGSlowdown: metrics.Slowdown(res.JobResult("teragen").Runtime(), saTG.Runtime()),
		}, nil
	}
	if out.NoSync, err = run(false); err != nil {
		return nil, err
	}
	if out.Sync, err = run(true); err != nil {
		return nil, err
	}
	if out.MicroNoSyncRatio, _, err = microRun(false, 1, 8); err != nil {
		return nil, err
	}
	if out.MicroSyncRatio, _, err = microRun(true, 1, 8); err != nil {
		return nil, err
	}
	return out, nil
}

// microRun is the uneven-presence microbenchmark: one app backlogged
// on every node, another on a quarter of them, equal weights, SFQ(D=2)
// schedulers, configurable coordination period and cluster size.
// Returns the wide/narrow service ratio after 60 simulated seconds and
// the broker exchange count.
func microRun(coordinate bool, period float64, nodes int) (float64, uint64, error) {
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              nodes,
		Policy:             cluster.SFQD,
		SFQDepth:           2,
		Coordinate:         coordinate,
		CoordinationPeriod: period,
	})
	if err != nil {
		return 0, 0, err
	}
	l := newClosedLoop(eng, 60)
	wide, narrow := l.keepUneven(cl, 1)
	if err := l.run(); err != nil {
		return 0, 0, err
	}
	exchanges := cl.BrokerStats().Exchanges
	if narrow.bytes == 0 {
		return math.Inf(1), exchanges, nil
	}
	return wide.bytes / narrow.bytes, exchanges, nil
}

// Improvement returns how much lower the Sync average slowdown is,
// relative to No Sync (paper: 25%).
func (r *Fig12Result) Improvement() float64 {
	if r.NoSync.Avg() <= 0 {
		return 0
	}
	return 1 - r.Sync.Avg()/r.NoSync.Avg()
}

// String renders the ablation.
func (r *Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: distributed coordination (CPU 1:1, I/O 32:1 favoring TeraSort, scale %.3g)\n", r.Scale)
	fmt.Fprintf(&b, "  %-9s %9s %9s %9s\n", "mode", "ts-slow", "tg-slow", "avg")
	for _, row := range []Fig11Row{r.NoSync, r.Sync} {
		fmt.Fprintf(&b, "  %-9s %8.0f%% %8.0f%% %8.0f%%\n",
			row.Config, row.TSSlowdown*100, row.TGSlowdown*100, row.Avg()*100)
	}
	fmt.Fprintf(&b, "  macro: sync changes average slowdown by %+.0f%% (paper: 25%% better)\n", r.Improvement()*100)
	fmt.Fprintf(&b, "  micro (app on 2/8 nodes vs app on 8/8, equal weights):\n")
	fmt.Fprintf(&b, "    no-sync wide/narrow service = %.2f   sync = %.2f\n",
		r.MicroNoSyncRatio, r.MicroSyncRatio)
	fmt.Fprintf(&b, "    (≈3.0 is the physical optimum: the narrow app's two disks saturate;\n")
	fmt.Fprintf(&b, "     local-only fairness leaves it ≈7× behind)\n")
	return b.String()
}
