package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPSSingleJobServiceTime(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	done := -1.0
	r.Submit(250, func(any, float64) { done = e.Now() }, nil)
	e.Run()
	if math.Abs(done-2.5) > 1e-9 {
		t.Fatalf("completion at %v, want 2.5", done)
	}
}

func TestPSEqualSharing(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	var t1, t2 float64
	r.Submit(100, func(any, float64) { t1 = e.Now() }, nil)
	r.Submit(100, func(any, float64) { t2 = e.Now() }, nil)
	e.Run()
	// Two equal jobs sharing 100 u/s: both finish at 2s.
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Fatalf("completions %v, %v; want both 2", t1, t2)
	}
}

func TestPSUnequalJobs(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	var small, large float64
	r.Submit(50, func(any, float64) { small = e.Now() }, nil)
	r.Submit(150, func(any, float64) { large = e.Now() }, nil)
	e.Run()
	// Shared until small finishes: small gets 50 u/s -> done at 1s.
	// Large has 100 left, alone at 100 u/s -> done at 2s.
	if math.Abs(small-1) > 1e-9 {
		t.Fatalf("small done at %v, want 1", small)
	}
	if math.Abs(large-2) > 1e-9 {
		t.Fatalf("large done at %v, want 2", large)
	}
}

func TestPSLateArrival(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	var a, b float64
	r.Submit(100, func(any, float64) { a = e.Now() }, nil)
	e.Schedule(0.5, func() { r.Submit(100, func(any, float64) { b = e.Now() }, nil) })
	e.Run()
	// First runs alone 0.5s (50 units), then shares. 50 left at 50 u/s:
	// a done at 1.5. b: 100 units: 50 shared (1s), then alone 50 at 100:
	// b done at 2.0.
	if math.Abs(a-1.5) > 1e-9 {
		t.Fatalf("a done at %v, want 1.5", a)
	}
	if math.Abs(b-2.0) > 1e-9 {
		t.Fatalf("b done at %v, want 2.0", b)
	}
}

func TestPSCapacityCurve(t *testing.T) {
	e := NewEngine()
	// Capacity doubles with two jobs (perfect scaling).
	cap := func(n int) float64 { return 100 * float64(n) }
	r := NewPSResource(e, "ssd", cap)
	var a, b float64
	r.Submit(100, func(any, float64) { a = e.Now() }, nil)
	r.Submit(100, func(any, float64) { b = e.Now() }, nil)
	e.Run()
	if math.Abs(a-1) > 1e-9 || math.Abs(b-1) > 1e-9 {
		t.Fatalf("completions %v %v, want both 1 (no interference)", a, b)
	}
}

func TestPSZeroDemandCompletesImmediately(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	done := false
	r.Submit(0, func(any, float64) { done = true }, nil)
	if done {
		t.Fatal("zero-demand job completed synchronously; want deferred event")
	}
	e.Run()
	if !done || e.Now() != 0 {
		t.Fatalf("zero-demand job: done=%v now=%v", done, e.Now())
	}
}

func TestPSDisturbanceSlowsService(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	var done float64
	r.Submit(100, func(any, float64) { done = e.Now() }, nil)
	e.Schedule(0.5, func() { r.SetDisturbance(0.5) })
	e.Run()
	// 50 units in first 0.5s; remaining 50 at 50 u/s -> 1 more second.
	if math.Abs(done-1.5) > 1e-9 {
		t.Fatalf("done at %v, want 1.5", done)
	}
	if r.Disturbance() != 0.5 {
		t.Fatalf("Disturbance() = %v", r.Disturbance())
	}
}

func TestPSDisturbanceInvalidPanics(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	defer func() {
		if recover() == nil {
			t.Fatal("SetDisturbance(0) did not panic")
		}
	}()
	r.SetDisturbance(0)
}

func TestPSAccounting(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	r.Submit(100, nil, nil)
	r.Submit(200, nil, nil)
	e.Run()
	if got := r.ServedUnits(); math.Abs(got-300) > 1e-6 {
		t.Fatalf("ServedUnits = %v, want 300", got)
	}
	if got := r.Completed(); got != 2 {
		t.Fatalf("Completed = %d, want 2", got)
	}
	if got := r.BusyTime(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("BusyTime = %v, want 3", got)
	}
}

func TestPSWorkConservingIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	r.Submit(100, nil, nil)
	e.Schedule(5, func() { r.Submit(100, nil, nil) })
	e.Run()
	if got := r.BusyTime(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("BusyTime = %v, want 2 (1s + 1s with idle gap)", got)
	}
	if e.Now() != 6 {
		t.Fatalf("Now = %v, want 6", e.Now())
	}
}

func TestPSInFlightAndRate(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(80))
	if r.Rate() != 0 {
		t.Fatalf("idle Rate = %v, want 0", r.Rate())
	}
	r.Submit(1000, nil, nil)
	r.Submit(1000, nil, nil)
	if r.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", r.InFlight())
	}
	if r.Rate() != 80 {
		t.Fatalf("Rate = %v, want 80", r.Rate())
	}
}

func TestPSNilCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil capacity did not panic")
		}
	}()
	NewPSResource(NewEngine(), "x", nil)
}

// Property: work conservation. For any job mix, total served units equals
// total demand, and the makespan is at least totalDemand / maxCapacity.
func TestPropertyPSWorkConservation(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewPSResource(e, "disk", ConstantCapacity(100))
		total := 0.0
		completions := 0
		for i := 0; i < n; i++ {
			d := 1 + rng.Float64()*500
			total += d
			arrival := rng.Float64() * 3
			e.Schedule(arrival, func() { r.Submit(d, func(any, float64) { completions++ }, nil) })
		}
		e.Run()
		if completions != n {
			return false
		}
		if math.Abs(r.ServedUnits()-total) > 1e-6*total {
			return false
		}
		// Makespan lower bound.
		return e.Now() >= total/100-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a concave capacity curve the resource never serves more
// than peak capacity integrated over busy time.
func TestPropertyPSCapacityBound(t *testing.T) {
	capFn := func(n int) float64 {
		switch {
		case n <= 1:
			return 60
		case n <= 4:
			return 100
		default:
			return 90
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewPSResource(e, "disk", capFn)
		for i := 0; i < 12; i++ {
			d := 1 + rng.Float64()*200
			e.Schedule(rng.Float64()*2, func() { r.Submit(d, nil, nil) })
		}
		e.Run()
		return r.ServedUnits() <= 100*r.BusyTime()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPSDeterministicCompletionOrder(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		r := NewPSResource(e, "disk", ConstantCapacity(100))
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			r.Submit(100, func(any, float64) { order = append(order, i) }, nil)
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion order not deterministic: %v vs %v", a, b)
		}
		if a[i] != i {
			t.Fatalf("completion order %v, want submission order", a)
		}
	}
}

// TestPSServedUnitsBitDeterminism pins the fix for the latent
// nondeterminism in the old map-based PSResource: advance/completeDue
// iterated a Go map, so the float accumulation order of servedUnits —
// and hence its rounding — varied run to run. With heap-ordered
// virtual-service accounting, repeated seeded runs must agree on every
// bit of the accounting totals.
func TestPSServedUnitsBitDeterminism(t *testing.T) {
	run := func(seed int64) (served, busy uint64) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		curve := func(n int) float64 {
			if n > 4 {
				return 85
			}
			return 100
		}
		r := NewPSResource(e, "disk", curve)
		for i := 0; i < 60; i++ {
			d := 0.5 + rng.Float64()*300
			at := rng.Float64() * 10
			e.Schedule(at, func() { r.Submit(d, nil, nil) })
		}
		for i := 0; i < 8; i++ {
			e.Schedule(rng.Float64()*12, func() { r.SetDisturbance(0.3 + rng.Float64()) })
		}
		e.Run()
		return math.Float64bits(r.ServedUnits()), math.Float64bits(r.BusyTime())
	}
	for _, seed := range []int64{1, 7, 42, 1234} {
		s1, b1 := run(seed)
		s2, b2 := run(seed)
		if s1 != s2 || b1 != b2 {
			t.Fatalf("seed %d: accounting not bit-identical across runs: served %x vs %x, busy %x vs %x",
				seed, s1, s2, b1, b2)
		}
	}
}

// TestPSDoneReceivesArgAndLatency pins the completion contract: the
// callback gets back the argument its job was submitted with and the
// job's latency from submission, and a callback that resubmits reuses
// the recycled record without disturbing the next completion.
func TestPSDoneReceivesArgAndLatency(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", ConstantCapacity(100))
	type rec struct {
		name string
		lat  float64
		at   float64
	}
	var got []rec
	var done DoneFunc
	done = func(arg any, lat float64) {
		name := *arg.(*string)
		got = append(got, rec{name, lat, e.Now()})
		if name == "a" {
			next := "c"
			r.Submit(50, done, &next)
		}
	}
	a, b := "a", "b"
	r.Submit(100, done, &a)
	e.Schedule(0.5, func() { r.Submit(100, done, &b) })
	e.Run()
	// a: 0.5 s alone, then 50 units shared at 50 u/s -> done at 1.5
	// (latency 1.5). b from 0.5: 50 shared by 1.5, then shares with c
	// from 1.5; b and c each have 50 left at 50 u/s -> both at 2.5.
	want := []rec{{"a", 1.5, 1.5}, {"b", 2.0, 2.5}, {"c", 1.0, 2.5}}
	if len(got) != len(want) {
		t.Fatalf("completions %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].name != want[i].name || math.Abs(got[i].lat-want[i].lat) > 1e-9 || math.Abs(got[i].at-want[i].at) > 1e-9 {
			t.Fatalf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
