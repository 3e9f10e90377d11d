package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// The reweight experiment measures the runtime control plane end to
// end: two tenants backlog every datanode under coordinated SFQ(D),
// one of them is reweighted live through the share tree mid-run, and
// the per-second service-ratio trajectory shows the cluster converging
// from the old proportional target to the new one — with full
// invariant auditing on, and zero violations expected outside the
// declared epoch reconvergence windows.

// reweightHorizon is the simulated duration in seconds.
const reweightHorizon = 60

// ReweightSpec scripts the live weight change.
type ReweightSpec struct {
	// At is the virtual time of the reweight (seconds).
	At float64
	// App is the application to reweight ("hot" or "base" in the
	// microbenchmark).
	App iosched.AppID
	// Weight is the new weight.
	Weight float64
}

// DefaultReweightSpec doubles down on the hot tenant mid-run: 1:1
// service before t=30, 8:1 after.
func DefaultReweightSpec() ReweightSpec {
	return ReweightSpec{At: 30, App: "hot", Weight: 8}
}

// reweightWindow is the trailing measurement window in seconds. The
// DSFQ delay mechanism redistributes service at coordination-period
// granularity, so per-second ratios oscillate by design; a few periods
// of smoothing recover the underlying share.
const reweightWindow = 5

// ReweightPoint is one sampled second of the trajectory.
type ReweightPoint struct {
	T     float64 `json:"t"`
	Ratio float64 `json:"ratio"` // hot/base service over the trailing window
}

// ReweightResult is the measured outcome.
type ReweightResult struct {
	Spec       ReweightSpec    `json:"spec"`
	OldTarget  float64         `json:"old_target"`
	NewTarget  float64         `json:"new_target"`
	Trajectory []ReweightPoint `json:"trajectory"`
	// ConvergedAt is the start of the first post-reweight second from
	// which the ratio stays within 20% of the new target for the rest
	// of the run (+Inf if never).
	ConvergedAt float64 `json:"converged_at"`
	// TenantRatio is the broker's cumulative tenant-level service ratio
	// over the whole run (dominated by the post-reweight regime only as
	// far as the reweight point allows).
	TenantRatio float64 `json:"tenant_ratio"`
	// Epoch is the share tree's final version; EpochWindows counts the
	// audit's epoch-noted reconvergence windows, EpochSkips the share
	// checks suspended inside them.
	Epoch        uint64 `json:"epoch"`
	EpochWindows uint64 `json:"epoch_windows"`
	EpochSkips   uint64 `json:"epoch_skips"`
	// Violations is the total audit violation count — the acceptance
	// bar is zero, since share checks inside epoch windows are
	// suspended rather than failed.
	Violations uint64 `json:"violations"`
}

// Reweight runs the live-reconfiguration microbenchmark: apps "hot"
// and "base" (both weight 1, each under its own named tenant) backlog
// all 8 nodes; spec.App is reweighted at spec.At through the cluster's
// share tree — the same control plane ibis.Sim.SetWeight drives.
func Reweight(spec ReweightSpec) (*ReweightResult, error) {
	if spec.App != "hot" && spec.App != "base" {
		return nil, fmt.Errorf("reweight: app %q not in the microbenchmark (want hot or base)", spec.App)
	}
	if !(spec.Weight > 0) || math.IsInf(spec.Weight, 1) {
		return nil, fmt.Errorf("reweight: weight %g must be positive and finite", spec.Weight)
	}
	if !(spec.At > 2 && spec.At < reweightHorizon-5) {
		return nil, fmt.Errorf("reweight: t=%g outside the measurable (2, %d) range", spec.At, reweightHorizon-5)
	}
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              8,
		Policy:             cluster.SFQD,
		SFQDepth:           2,
		Coordinate:         true,
		CoordinationPeriod: 1,
	})
	if err != nil {
		return nil, err
	}
	tree := cl.Shares()
	for _, app := range []iosched.AppID{"hot", "base"} {
		if err := tree.Tenant("t-"+string(app), 1); err != nil {
			return nil, err
		}
		if err := tree.Bind(app, "t-"+string(app), 1); err != nil {
			return nil, err
		}
	}

	au := audit.New(audit.Options{CoordinationPeriod: 1}, tree)
	au.CheckTenants()
	au.Attach(cl, 1)

	// The schedulers resolve weights through the cluster's share tree
	// — the path under test.
	l := newClosedLoop(eng, reweightHorizon)
	var hot, base tally
	hotIdx, baseIdx := tree.Index("hot"), tree.Index("base")
	for _, n := range cl.Nodes {
		l.keep(n.SubmitIO, &hot, 4, iosched.Request{AppIdx: hotIdx, Class: iosched.PersistentRead, Size: 2e6})
		l.keep(n.SubmitIO, &base, 4, iosched.Request{AppIdx: baseIdx, Class: iosched.PersistentRead, Size: 2e6})
	}

	// The live reweight, through the same tree the schedulers resolve.
	eng.ScheduleDaemon(spec.At, func() { l.fail(tree.SetAppWeight(spec.App, spec.Weight)) })

	// Per-second service snapshots.
	type snap struct{ hot, base float64 }
	samples := make([]snap, reweightHorizon+1)
	for s := 1; s <= reweightHorizon; s++ {
		eng.ScheduleDaemon(float64(s), func() { samples[s] = snap{hot.bytes, base.bytes} })
	}

	if err := l.run(); err != nil {
		return nil, err
	}
	au.Finish()

	res := &ReweightResult{Spec: spec, OldTarget: 1, NewTarget: spec.Weight}
	if spec.App == "base" {
		res.NewTarget = 1 / spec.Weight
	}
	for s := reweightWindow; s <= reweightHorizon; s++ {
		prev := samples[s-reweightWindow]
		dh, db := samples[s].hot-prev.hot, samples[s].base-prev.base
		pt := ReweightPoint{T: float64(s)}
		if db > 0 {
			pt.Ratio = dh / db
		}
		res.Trajectory = append(res.Trajectory, pt)
	}
	// Convergence: last suffix of the trajectory entirely within 25% of
	// the new target. A point at time T covers (T-window, T], so the
	// first clean window can close no earlier than At+window.
	res.ConvergedAt = -1
	for i := len(res.Trajectory) - 1; i >= 0; i-- {
		pt := res.Trajectory[i]
		if pt.T <= spec.At+reweightWindow {
			break
		}
		if pt.Ratio < res.NewTarget*0.75 || pt.Ratio > res.NewTarget*1.25 {
			break
		}
		res.ConvergedAt = pt.T
	}
	// A single-engine cluster has exactly one partition broker.
	if tt := cl.Partitions()[0].Broker().TenantTotals(); tt["t-base"] > 0 {
		res.TenantRatio = tt["t-hot"] / tt["t-base"]
	}
	checks := au.Checks()
	res.Epoch = tree.Epoch()
	res.EpochWindows = checks["epoch-noted"]
	res.EpochSkips = checks["share-skipped-epoch"]
	res.Violations = au.ViolationCount()
	return res, nil
}

// String renders the trajectory plus a machine-readable BENCH line.
func (r *ReweightResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live reweight: %s %g -> %g at t=%gs (8 nodes, SFQ(D), coordinated, audited)\n",
		r.Spec.App, 1.0, r.Spec.Weight, r.Spec.At)
	fmt.Fprintf(&b, "  hot/base service-ratio target: %.3g before, %.3g after\n", r.OldTarget, r.NewTarget)
	fmt.Fprintf(&b, "  %-6s %s\n", "t(s)", fmt.Sprintf("hot/base ratio (trailing %ds window)", reweightWindow))
	for _, pt := range r.Trajectory {
		if int(pt.T)%5 != 0 {
			continue // print every 5s; the BENCH line has every sample
		}
		fmt.Fprintf(&b, "  %-6.0f %.3f\n", pt.T, pt.Ratio)
	}
	conv := "never"
	if r.ConvergedAt >= 0 {
		conv = fmt.Sprintf("%.0fs (%.0fs after the change)", r.ConvergedAt, r.ConvergedAt-r.Spec.At)
	}
	fmt.Fprintf(&b, "  converged (±25%%) at %s; tenant-level cumulative ratio %.3f\n", conv, r.TenantRatio)
	fmt.Fprintf(&b, "  epoch %d, %d epoch windows, %d share checks suspended, %d violations\n",
		r.Epoch, r.EpochWindows, r.EpochSkips, r.Violations)
	if js, err := json.Marshal(r); err == nil {
		fmt.Fprintf(&b, "BENCH %s\n", js)
	}
	return b.String()
}
