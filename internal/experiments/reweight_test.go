package experiments

import (
	"math"
	"testing"
)

// TestReweightConverges pins the live-reconfiguration acceptance bar:
// the tenant service ratio tracks the old target before the change,
// converges to the new target within a bounded number of coordination
// periods after it, and auditing records zero violations — share
// checks inside the declared epoch windows are suspended, not failed.
func TestReweightConverges(t *testing.T) {
	res, err := Reweight(DefaultReweightSpec())
	if err != nil {
		t.Fatal(err)
	}
	pre, post := 0.0, 0.0
	npre, npost := 0, 0
	for _, pt := range res.Trajectory {
		switch {
		case pt.T <= res.Spec.At:
			pre += pt.Ratio
			npre++
		case pt.T >= res.Spec.At+2*reweightWindow:
			post += pt.Ratio
			npost++
		}
	}
	pre /= float64(npre)
	post /= float64(npost)
	if math.Abs(pre-res.OldTarget)/res.OldTarget > 0.25 {
		t.Errorf("pre-reweight mean ratio %.3f, want ≈%g", pre, res.OldTarget)
	}
	if math.Abs(post-res.NewTarget)/res.NewTarget > 0.25 {
		t.Errorf("post-reweight mean ratio %.3f, want ≈%g", post, res.NewTarget)
	}
	if res.ConvergedAt < 0 {
		t.Error("trajectory never converged to the new target")
	} else if lag := res.ConvergedAt - res.Spec.At; lag > 10 {
		t.Errorf("converged %.0fs after the change, want within 10 coordination periods", lag)
	}
	if res.Violations != 0 {
		t.Errorf("%d audit violations, want 0", res.Violations)
	}
	if res.EpochWindows == 0 {
		t.Error("reweight produced no epoch window — the control plane is not reaching the auditor")
	}
	if res.Epoch == 0 {
		t.Error("share tree epoch still 0")
	}
}

// TestReweightSpecValidation covers the input checks behind the
// -reweight flag.
func TestReweightSpecValidation(t *testing.T) {
	for _, spec := range []ReweightSpec{
		{At: 30, App: "ghost", Weight: 8},
		{At: 30, App: "hot", Weight: 0},
		{At: 0, App: "hot", Weight: 8},
		{At: 59, App: "hot", Weight: 8},
		// NaN and infinities parse as floats from the flag: a NaN
		// weight slips past a "<= 0" check and fails inside the share
		// tree mid-run; a NaN time passes a range check built from
		// "<=" and ">=" and the reweight never fires.
		{At: 30, App: "hot", Weight: math.NaN()},
		{At: 30, App: "hot", Weight: math.Inf(1)},
		{At: math.NaN(), App: "hot", Weight: 8},
	} {
		if _, err := Reweight(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}
