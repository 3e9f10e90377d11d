package experiments

import (
	"fmt"
	"math"
	"strings"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/metrics"
	"ibis/internal/sim"
)

// The fault matrix exercises the coordination plane's failure handling
// on the uneven-presence microbenchmark: a "wide" app (weight 3)
// backlogged on every node versus a "narrow" app (weight 1) backlogged
// on a quarter of them. The 3:1 weights make the narrow app's physical
// optimum — its own disks saturated — exactly the proportional target,
// so under healthy coordination the wide/narrow service ratio sits at
// ≈3 (and the total-share audit bound is satisfiable), while pure
// local 3:1 fairness yields ≈15. Degradation is therefore directly
// visible in the ratio: ≈3 healthy, →15 during a coordination outage,
// back to ≈3 after recovery.
//
// Every scenario runs under full invariant auditing. Degraded windows
// are checked against the local proportional-share bound, the cluster
// total-share check is suspended while any member is degraded and for
// K recovery periods after, and must pass once it re-engages — the
// audit-checked reconvergence the degradation contract promises.

// faultPhases are the measurement intervals, chosen around the
// [20,40) fault window used by the window scenarios: pre ends at the
// fault start, during starts one period past the degradation threshold,
// post starts after the K-period recovery grace has expired.
var faultPhases = []struct {
	Name       string
	Start, End float64
}{
	{"pre", 5, 20},
	{"during", 25, 40},
	{"post", 50, 65},
}

// faultHorizon is the simulated duration of every scenario run.
const faultHorizon = 70

// FaultScenario is one named fault schedule in the matrix.
type FaultScenario struct {
	Name   string
	Policy cluster.Policy
	Spec   *faults.Spec
}

// FaultMatrixRow is the outcome of one scenario.
type FaultMatrixRow struct {
	Scenario string
	// Pre, During, Post are wide/narrow service ratios per phase.
	Pre, During, Post float64
	Health            metrics.CoordinationHealth
	Violations        uint64
	// DegradedChecks / TotalChecks / TotalSkipped are audit evaluation
	// counts: local proportional-share checks in degraded windows, the
	// cluster-wide total-share check, and windows where that check was
	// suspended by an open degradation (plus recovery grace).
	DegradedChecks uint64
	TotalChecks    uint64
	TotalSkipped   uint64
}

// FaultMatrixResult is the full matrix.
type FaultMatrixResult struct {
	Rows []FaultMatrixRow
}

// faultScenarios builds the deterministic scenario set. Nodes is the
// cluster size (8 in the standard matrix).
func faultScenarios(nodes int) []FaultScenario {
	window := []faults.Window{{Start: 20, End: 40}}
	narrow0 := fmt.Sprintf("node%d", 0)
	narrow1 := fmt.Sprintf("node%d", 1)
	return []FaultScenario{
		{Name: "baseline", Policy: cluster.SFQD, Spec: nil},
		{Name: "outage", Policy: cluster.SFQD, Spec: &faults.Spec{
			Seed: 1, Outages: window,
		}},
		{Name: "partition", Policy: cluster.SFQD, Spec: &faults.Spec{
			Seed: 2,
			Partitions: map[string][]faults.Window{
				narrow0 + "-hdfs":  window,
				narrow0 + "-local": window,
			},
		}},
		{Name: "loss", Policy: cluster.SFQD, Spec: &faults.Spec{
			Seed:     3,
			DropProb: 0.25, RespDropProb: 0.15,
			DelayProb: 0.5, DelayMin: 0.01, DelayMax: 0.2,
		}},
		{Name: "restart", Policy: cluster.SFQD, Spec: &faults.Spec{
			Seed: 4,
			Restarts: map[string][]float64{
				narrow1 + "-hdfs":  {30},
				narrow1 + "-local": {30},
			},
		}},
		{Name: "dev-degrade", Policy: cluster.SFQD2, Spec: &faults.Spec{
			Seed: 5,
			DeviceDegrade: map[string][]faults.Window{
				narrow0 + "-hdfs": {{Start: 20, End: 35}},
			},
			DegradeFactor: 0.25,
		}},
	}
}

// FaultMatrix runs every scenario and returns the matrix.
func FaultMatrix() (*FaultMatrixResult, error) {
	out := &FaultMatrixResult{}
	for _, sc := range faultScenarios(8) {
		row, err := faultRun(sc, 8)
		if err != nil {
			return nil, fmt.Errorf("fault-matrix %s: %w", sc.Name, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// FaultCustom runs one user-specified fault schedule on the
// microbenchmark (SFQ(D) policy, 8 nodes) and returns a single-row
// matrix — the driver behind ibis-bench's fault flags.
func FaultCustom(spec faults.Spec) (*FaultMatrixResult, error) {
	row, err := faultRun(FaultScenario{Name: "custom", Policy: cluster.SFQD, Spec: &spec}, 8)
	if err != nil {
		return nil, fmt.Errorf("fault-custom: %w", err)
	}
	return &FaultMatrixResult{Rows: []FaultMatrixRow{row}}, nil
}

// faultRun executes one scenario on the uneven-presence microbenchmark
// with full auditing and phase-resolved service accounting.
func faultRun(sc FaultScenario, nodes int) (FaultMatrixRow, error) {
	eng := sim.NewEngine()
	var inj *faults.Injector
	if sc.Spec != nil {
		inj = faults.New(*sc.Spec)
	}
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              nodes,
		Policy:             sc.Policy,
		SFQDepth:           2,
		Coordinate:         true,
		CoordinationPeriod: 1,
		Faults:             inj,
	})
	if err != nil {
		return FaultMatrixRow{}, err
	}
	au := audit.New(audit.Options{CoordinationPeriod: 1})
	au.Attach(cl, 1)

	var wide, narrow float64
	backlog := func(n *cluster.Node, app iosched.AppID, weight float64, served *float64) {
		var issue func()
		issue = func() {
			n.SubmitIO(&iosched.Request{
				App: app, Shares: iosched.FixedWeight(weight), Class: iosched.PersistentRead, Size: 2e6,
				OnDone: func(float64) {
					*served += 2e6
					if eng.Now() < faultHorizon {
						issue()
					}
				},
			})
		}
		for i := 0; i < 4; i++ {
			issue()
		}
	}
	quarter := nodes / 4
	if quarter < 1 {
		quarter = 1
	}
	for i, n := range cl.Nodes {
		backlog(n, "wide", 3, &wide)
		if i < quarter {
			backlog(n, "narrow", 1, &narrow)
		}
	}

	// Sample cumulative service at each phase boundary.
	type snap struct{ wide, narrow float64 }
	marks := make(map[float64]snap)
	for _, ph := range faultPhases {
		for _, t := range []float64{ph.Start, ph.End} {
			t := t
			eng.ScheduleDaemon(t, func() { marks[t] = snap{wide, narrow} })
		}
	}

	eng.RunUntil(faultHorizon)
	au.Finish()

	ratio := func(start, end float64) float64 {
		a, b := marks[start], marks[end]
		dw, dn := b.wide-a.wide, b.narrow-a.narrow
		if dn <= 0 {
			return math.Inf(1)
		}
		return dw / dn
	}
	checks := au.Checks()
	row := FaultMatrixRow{
		Scenario:       sc.Name,
		Pre:            ratio(faultPhases[0].Start, faultPhases[0].End),
		During:         ratio(faultPhases[1].Start, faultPhases[1].End),
		Post:           ratio(faultPhases[2].Start, faultPhases[2].End),
		Health:         cl.CoordinationHealth(),
		Violations:     au.ViolationCount(),
		DegradedChecks: checks["proportional-share-degraded"],
		TotalChecks:    checks["total-proportional-share"],
		TotalSkipped:   checks["total-proportional-share-skipped"],
	}
	return row, nil
}

// String renders the matrix.
func (r *FaultMatrixResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault matrix: coordination-plane failures on the uneven-presence microbenchmark\n")
	fmt.Fprintf(&b, "  wide (w=3, 8/8 nodes) vs narrow (w=1, 2/8 nodes); service ratio target ≈3 coordinated, ≈15 local-only\n")
	fmt.Fprintf(&b, "  fault window [20s,40s); phases: pre [5,20) during [25,40) post [50,65)\n")
	fmt.Fprintf(&b, "  %-12s %6s %7s %6s %5s %6s %6s %6s %6s %7s %7s %7s\n",
		"scenario", "pre", "during", "post", "viol", "degr", "recov", "retry", "skip", "chkDeg", "chkTot", "totSkip")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %6.2f %7.2f %6.2f %5d %6d %6d %6d %6d %7d %7d %7d\n",
			row.Scenario, row.Pre, row.During, row.Post,
			row.Violations, row.Health.Degradations, row.Health.Recoveries,
			row.Health.Retries, row.Health.SkippedRounds,
			row.DegradedChecks, row.TotalChecks, row.TotalSkipped)
	}
	fmt.Fprintf(&b, "  degraded rows: ratio rises toward local-only during the fault and reconverges after;\n")
	fmt.Fprintf(&b, "  the audit suspends the total-share check while degraded (+5 periods) and re-tightens it after\n")
	return b.String()
}
