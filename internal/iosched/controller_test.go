package iosched

import (
	"math"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

func TestControllerDefaults(t *testing.T) {
	c := ControllerConfig{ReadLref: 0.01}
	c.defaults()
	if c.Gain <= 0 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.WriteLref != c.ReadLref {
		t.Fatalf("WriteLref default = %v, want ReadLref", c.WriteLref)
	}
	// D starts permissive, at the top of the paper's [1, 12].
	eng := sim.NewEngine()
	if d := mustSFQD2(t, eng, storage.NewDevice(eng, "d", flatSpec()), c).Depth(); d != 12 {
		t.Fatalf("initial depth = %d, want 12", d)
	}
}

// mustSFQD2 is NewSFQD2 for a configuration the test knows is valid.
func mustSFQD(t testing.TB, eng *sim.Engine, dev Backend, depth int) *SFQ {
	t.Helper()
	s, err := NewSFQD(eng, dev, testApps, depth)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSFQD2(t testing.TB, eng *sim.Engine, dev Backend, cfg ControllerConfig) *SFQ {
	t.Helper()
	s, err := NewSFQD2(eng, dev, testApps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestControllerValidation(t *testing.T) {
	bad := []ControllerConfig{
		{}, // no reference latency
	}
	// Every float field the controller computes with, at each
	// non-finite value: NaN would make the depth NaN, which rounds to
	// the minimum depth without an error.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			ControllerConfig{ReadLref: 0.01, Gain: v},
			ControllerConfig{ReadLref: v},
			ControllerConfig{ReadLref: 0.01, WriteLref: v},
		)
	}
	for i, cfg := range bad {
		eng := sim.NewEngine()
		if s, err := NewSFQD2(eng, storage.NewDevice(eng, "d", flatSpec()), testApps, cfg); err == nil {
			t.Errorf("case %d (%+v): invalid config accepted, depth %d", i, cfg, s.Depth())
		}
	}
}

func TestControllerShrinksDepthUnderHighLatency(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD2(t, eng, dev, ControllerConfig{
		ReadLref: 0.001, // far below what the loaded device will show
		Gain:     100,
	})
	var served float64
	for i := 0; i < 12; i++ {
		backlog(eng, s, "A", 1, PersistentRead, 4e6, 1, 20, &served)
	}
	eng.RunUntil(20)
	if d := s.Depth(); d != 1 {
		t.Fatalf("depth = %d after sustained over-latency, want clamped to 1", d)
	}
}

func TestControllerGrowsDepthUnderLowLatency(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD2(t, eng, dev, ControllerConfig{
		ReadLref: 10, // far above observed latency
		Gain:     5,
	})
	s.Controller().d = 1 // start at the floor, so reaching 12 is growth
	var served float64
	backlog(eng, s, "A", 1, PersistentRead, 1e6, 6, 20, &served)
	eng.RunUntil(20)
	if d := s.Depth(); d != 12 {
		t.Fatalf("depth = %d after sustained under-latency, want grown to max 12", d)
	}
}

func TestControllerIdlePeriodsLeaveDepth(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD2(t, eng, dev, ControllerConfig{ReadLref: 0.01})
	s.Controller().d = 5 // off both bounds, so a drift either way shows
	// Keep the sim alive with a live no-op event past several periods.
	eng.Schedule(5.5, func() {})
	eng.Run()
	if s.Depth() != 5 {
		t.Fatalf("depth drifted to %d with no traffic, want 5", s.Depth())
	}
	if s.Controller().Periods() < 5 {
		t.Fatalf("controller ran %d periods, want >= 5", s.Controller().Periods())
	}
}

func TestControllerTrace(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	var pts []TracePoint
	s := mustSFQD2(t, eng, dev, ControllerConfig{
		ReadLref: 0.02,
		Trace:    func(p TracePoint) { pts = append(pts, p) },
	})
	var served float64
	backlog(eng, s, "A", 1, PersistentRead, 1e6, 4, 5, &served)
	eng.RunUntil(6)
	if len(pts) < 4 {
		t.Fatalf("trace points = %d, want >= 4", len(pts))
	}
	for i, p := range pts {
		if p.Depth < 1 || p.Depth > 12 {
			t.Fatalf("trace[%d] depth %d out of bounds", i, p.Depth)
		}
		if i > 0 && pts[i].Time <= pts[i-1].Time {
			t.Fatalf("trace times not increasing")
		}
	}
	busy := 0
	for _, p := range pts {
		if p.Samples > 0 {
			busy++
			if p.Latency <= 0 {
				t.Fatalf("busy period with zero latency: %+v", p)
			}
		}
	}
	if busy == 0 {
		t.Fatal("no busy periods traced")
	}
}

func TestControllerMixedReferenceWeighting(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD2(t, eng, dev, ControllerConfig{
		ReadLref:  0.010,
		WriteLref: 0.050,
		Gain:      0, // isolate the Lref computation via trace
	})
	// Gain 0 is coerced to default, so instead capture the trace Lref.
	_ = s
	var got []float64
	eng2 := sim.NewEngine()
	dev2 := storage.NewDevice(eng2, "d", flatSpec())
	s2 := mustSFQD2(t, eng2, dev2, ControllerConfig{
		ReadLref:  0.010,
		WriteLref: 0.050,
		Trace: func(p TracePoint) {
			if p.Samples > 0 {
				got = append(got, p.Lref)
			}
		},
	})
	// Pure writes for a few seconds: Lref should equal WriteLref.
	var served float64
	backlog(eng2, s2, "A", 1, PersistentWrite, 1e6, 2, 3, &served)
	eng2.RunUntil(4)
	if len(got) == 0 {
		t.Fatal("no busy trace periods")
	}
	for _, l := range got {
		if math.Abs(l-0.050) > 1e-12 {
			t.Fatalf("pure-write Lref = %v, want 0.050", l)
		}
	}
}

func TestControllerDepthRounding(t *testing.T) {
	c := &DepthController{d: 3.6}
	if c.Depth() != 4 {
		t.Fatalf("Depth() = %d for raw 3.6, want 4", c.Depth())
	}
	c.d = 0.2
	if c.Depth() != 1 {
		t.Fatalf("Depth() = %d for raw 0.2, want clamp 1", c.Depth())
	}
	c.d = 99
	if c.Depth() != 12 {
		t.Fatalf("Depth() = %d for raw 99, want clamp 12", c.Depth())
	}
	if c.Raw() != 99 {
		t.Fatalf("Raw() = %v", c.Raw())
	}
}

// SFQ(D2) should track a capacity disturbance: when the device slows
// down (latency spikes), depth should fall, then recover.
func TestControllerReactsToFlushDisturbance(t *testing.T) {
	eng := sim.NewEngine()
	// A device that rewards concurrency up to ~4 streams, so the
	// latency knee (and hence the controller's operating point) sits at
	// a depth well above 1.
	spec := storage.Spec{
		Name:       "curvy",
		ReadBW:     100e6,
		WriteBW:    100e6,
		Curve:      []float64{0.55, 0.70, 0.85, 1.0},
		CurveDecay: 1,
		MinCurve:   0.5,
	}
	dev := storage.NewDevice(eng, "d", spec)
	prof, err := storage.ProfileDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	var minDepth, maxAfter int = 99, 0
	s := mustSFQD2(t, eng, dev, ControllerConfig{
		ReadLref: prof.ReadLref * 1.2,
		Gain:     200,
		Trace: func(p TracePoint) {
			if p.Time > 10 && p.Time < 20 && p.Depth < minDepth {
				minDepth = p.Depth
			}
			if p.Time > 40 && p.Depth > maxAfter {
				maxAfter = p.Depth
			}
		},
	})
	var served float64
	backlog(eng, s, "A", 1, PersistentRead, 1e6, 8, 50, &served)
	// Disturbance window [10, 20): device at 10% capacity.
	eng.Schedule(10, func() { dev.SetDisturbance(0.1) })
	eng.Schedule(20, func() { dev.SetDisturbance(1) })
	eng.RunUntil(50)
	if minDepth > 2 {
		t.Fatalf("depth only fell to %d during disturbance, want <= 2", minDepth)
	}
	if maxAfter < 4 {
		t.Fatalf("depth recovered only to %d after disturbance, want >= 4", maxAfter)
	}
}
