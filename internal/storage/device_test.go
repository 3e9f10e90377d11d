package storage

import (
	"math"
	"testing"
	"testing/quick"

	"ibis/internal/sim"
)

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		ok     bool
	}{
		{"hdd default", func(*Spec) {}, true},
		{"zero read bw", func(s *Spec) { s.ReadBW = 0 }, false},
		{"zero write bw", func(s *Spec) { s.WriteBW = 0 }, false},
		{"empty curve", func(s *Spec) { s.Curve = nil }, false},
		{"negative curve point", func(s *Spec) { s.Curve = []float64{0.5, -1} }, false},
		{"decay > 1", func(s *Spec) { s.CurveDecay = 1.5 }, false},
		{"zero decay", func(s *Spec) { s.CurveDecay = 0 }, false},
		{"zero min curve", func(s *Spec) { s.MinCurve = 0 }, false},
		{"flush without duration", func(s *Spec) { s.FlushThreshold = 1; s.FlushDuration = 0 }, false},
		{"flush factor > 1", func(s *Spec) { s.FlushThreshold = 1; s.FlushFactor = 2 }, false},
		{"NaN read bw", func(s *Spec) { s.ReadBW = math.NaN() }, false},
		{"infinite write bw", func(s *Spec) { s.WriteBW = math.Inf(1) }, false},
		{"NaN curve point", func(s *Spec) { s.Curve = []float64{0.5, math.NaN()} }, false},
		{"infinite curve point", func(s *Spec) { s.Curve = []float64{math.Inf(1)} }, false},
		{"NaN decay", func(s *Spec) { s.CurveDecay = math.NaN() }, false},
		{"NaN min curve", func(s *Spec) { s.MinCurve = math.NaN() }, false},
		{"NaN per-op overhead", func(s *Spec) { s.PerOpOverhead = math.NaN() }, false},
		{"negative per-op overhead", func(s *Spec) { s.PerOpOverhead = -1 }, false},
		{"zero per-op overhead", func(s *Spec) { s.PerOpOverhead = 0 }, true},
		{"NaN flush threshold", func(s *Spec) { s.FlushThreshold = math.NaN() }, false},
		{"NaN flush factor", func(s *Spec) { s.FlushFactor = math.NaN() }, false},
		{"flushes disabled", func(s *Spec) { s.FlushThreshold = 0; s.FlushFactor = 0 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := HDDSpec()
			c.mutate(&s)
			err := s.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() error = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestBuiltinSpecsValid(t *testing.T) {
	for _, s := range []Spec{HDDSpec(), SSDSpec()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestWriteCostAsymmetry(t *testing.T) {
	ssd := SSDSpec()
	if ssd.WriteCost() <= 1.5 {
		t.Fatalf("SSD write cost %v, want pronounced asymmetry > 1.5", ssd.WriteCost())
	}
	hdd := HDDSpec()
	if hdd.WriteCost() < 1 || hdd.WriteCost() > 1.5 {
		t.Fatalf("HDD write cost %v, want mild asymmetry in [1, 1.5]", hdd.WriteCost())
	}
}

func TestCurveMultiplier(t *testing.T) {
	s := Spec{
		Name: "toy", ReadBW: 100e6, WriteBW: 100e6,
		Curve:      []float64{0.5, 0.8, 1.0},
		CurveDecay: 0.9,
		MinCurve:   0.4,
	}
	if got := s.multiplier(0); got != s.Curve[0] {
		t.Fatalf("multiplier(0) = %v, want clamped to curve[0]", got)
	}
	if got := s.multiplier(1); got != s.Curve[0] {
		t.Fatalf("multiplier(1) = %v, want %v", got, s.Curve[0])
	}
	last := s.Curve[len(s.Curve)-1]
	if got := s.multiplier(len(s.Curve)); got != last {
		t.Fatalf("multiplier(end) = %v, want %v", got, last)
	}
	beyond := s.multiplier(len(s.Curve) + 3)
	want := last * math.Pow(s.CurveDecay, 3)
	if math.Abs(beyond-want) > 1e-12 {
		t.Fatalf("multiplier beyond curve = %v, want %v", beyond, want)
	}
	// Very deep queues floor at MinCurve.
	if got := s.multiplier(10000); got != s.MinCurve {
		t.Fatalf("deep multiplier = %v, want floor %v", got, s.MinCurve)
	}
}

func TestHDDCurveShape(t *testing.T) {
	s := HDDSpec()
	for i := 1; i < len(s.Curve); i++ {
		if s.Curve[i] < s.Curve[i-1] {
			t.Fatalf("HDD curve not monotone at %d", i)
		}
	}
	if last := s.Curve[len(s.Curve)-1]; math.Abs(last-1.06) > 0.01 {
		t.Fatalf("HDD curve tail = %v, want ≈1.06 (queue-merging gain)", last)
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	spec := HDDSpec()
	dev := NewDevice(eng, "d", spec)
	var lat float64
	size := 4e6
	dev.Submit(Read, size, func(_ any, l float64) { lat = l }, nil)
	eng.Run()
	want := (size + spec.PerOpOverhead) / (spec.ReadBW * spec.Curve[0])
	if math.Abs(lat-want) > 1e-9 {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestWriteSlowerThanReadOnSSD(t *testing.T) {
	spec := SSDSpec()
	latOf := func(kind OpKind) float64 {
		eng := sim.NewEngine()
		dev := NewDevice(eng, "d", spec)
		var lat float64
		dev.Submit(kind, 8e6, func(_ any, l float64) { lat = l }, nil)
		eng.Run()
		return lat
	}
	r, w := latOf(Read), latOf(Write)
	if w <= r*1.5 {
		t.Fatalf("ssd write latency %v vs read %v, want write much slower", w, r)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, "d", SSDSpec())
	dev.Submit(Read, 1e6, nil, nil)
	dev.Submit(Write, 2e6, nil, nil)
	dev.Submit(Write, 3e6, nil, nil)
	eng.Run()
	st := dev.Stats()
	if st.ReadOps != 1 || st.WriteOps != 2 {
		t.Fatalf("ops = %d/%d, want 1/2", st.ReadOps, st.WriteOps)
	}
	if st.ReadBytes != 1e6 || st.WriteBytes != 5e6 {
		t.Fatalf("bytes = %g/%g, want 1e6/5e6", st.ReadBytes, st.WriteBytes)
	}
	if st.Ops() != 3 {
		t.Fatalf("Ops() = %d, want 3", st.Ops())
	}
	if st.MeanLatency() <= 0 {
		t.Fatalf("MeanLatency() = %v, want > 0", st.MeanLatency())
	}
}

func TestMeanLatencyZeroOps(t *testing.T) {
	var st Stats
	if st.MeanLatency() != 0 {
		t.Fatal("MeanLatency with zero ops should be 0")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, "d", SSDSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	dev.Submit(Read, -1, nil, nil)
}

func TestNonFiniteSizePanics(t *testing.T) {
	for _, size := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			dev := NewDevice(sim.NewEngine(), "d", SSDSpec())
			defer func() {
				if recover() == nil {
					t.Errorf("size %g did not panic", size)
				}
			}()
			dev.Submit(Read, size, nil, nil)
		}()
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	NewDevice(sim.NewEngine(), "d", Spec{})
}

func TestFlushTriggersAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	spec := HDDSpec()
	spec.FlushThreshold = 50e6
	spec.FlushDuration = 2
	spec.FlushFactor = 0.25
	dev := NewDevice(eng, "d", spec)

	// Stream writes until past the threshold.
	var issued float64
	var issue func()
	issue = func() {
		if issued >= 80e6 {
			return
		}
		issued += 8e6
		dev.Submit(Write, 8e6, func(any, float64) { issue() }, nil)
	}
	issue()
	eng.Run()
	if dev.Stats().Flushes == 0 {
		t.Fatal("no flush triggered past the dirty threshold")
	}
	if dev.Flushing() {
		t.Fatal("device still flushing after run completed")
	}
}

func TestFlushSlowsRequests(t *testing.T) {
	baseSpec := HDDSpec()
	baseSpec.FlushThreshold = 0
	elapsedNoFlush := writeStream(t, baseSpec, 40, 8e6)

	flushSpec := HDDSpec()
	flushSpec.FlushThreshold = 100e6
	flushSpec.FlushDuration = 5
	flushSpec.FlushFactor = 0.2
	elapsedFlush := writeStream(t, flushSpec, 40, 8e6)

	if elapsedFlush <= elapsedNoFlush*1.05 {
		t.Fatalf("flush run %vs vs clean run %vs; want clearly slower", elapsedFlush, elapsedNoFlush)
	}
}

// writeStream issues count sequential writes of size bytes and returns
// the virtual completion time.
func writeStream(t *testing.T, spec Spec, count int, size float64) float64 {
	t.Helper()
	eng := sim.NewEngine()
	dev := NewDevice(eng, "d", spec)
	remaining := count
	var issue func()
	issue = func() {
		if remaining == 0 {
			return
		}
		remaining--
		dev.Submit(Write, size, func(any, float64) { issue() }, nil)
	}
	issue()
	return eng.Run()
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("OpKind.String mismatch")
	}
}

func TestOpCostMonotonicInSize(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, "d", HDDSpec())
	f := func(a, b uint32) bool {
		sa, sb := float64(a), float64(b)
		if sa > sb {
			sa, sb = sb, sa
		}
		return dev.Cost(Read, sa) <= dev.Cost(Read, sb) &&
			dev.Cost(Write, sa) <= dev.Cost(Write, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Throughput under concurrency should exceed single-stream throughput
// (the device rewards a deeper queue up to the knee).
func TestConcurrencyImprovesThroughput(t *testing.T) {
	for _, spec := range []Spec{HDDSpec(), SSDSpec()} {
		spec.FlushThreshold = 0
		tput := func(n int) float64 {
			eng := sim.NewEngine()
			dev := NewDevice(eng, "d", spec)
			var bytes float64
			var issue func()
			issue = func() {
				dev.Submit(Read, 4e6, func(any, float64) {
					bytes += 4e6
					if eng.Now() < 20 {
						issue()
					}
				}, nil)
			}
			for i := 0; i < n; i++ {
				issue()
			}
			end := eng.Run()
			return bytes / end
		}
		t1, t4 := tput(1), tput(4)
		if t4 <= t1 {
			t.Errorf("%s: throughput at depth 4 (%.1f MB/s) not above depth 1 (%.1f MB/s)",
				spec.Name, t4/1e6, t1/1e6)
		}
	}
}

func TestHDDDeepQueueKeepsThroughput(t *testing.T) {
	// The work-conserving appeal of native Hadoop: an unbounded queue
	// never loses aggregate throughput — only per-request latency.
	spec := HDDSpec()
	spec.FlushThreshold = 0
	tput := func(n int) float64 {
		eng := sim.NewEngine()
		dev := NewDevice(eng, "d", spec)
		var bytes float64
		var issue func()
		issue = func() {
			dev.Submit(Read, 4e6, func(any, float64) {
				bytes += 4e6
				if eng.Now() < 20 {
					issue()
				}
			}, nil)
		}
		for i := 0; i < n; i++ {
			issue()
		}
		return bytes / eng.Run()
	}
	if t64, t8 := tput(64), tput(8); t64 < t8 {
		t.Fatalf("deep queue throughput %.1f < knee throughput %.1f; elevator merging should keep it up", t64/1e6, t8/1e6)
	}
}

func TestLatencyGrowsWithConcurrency(t *testing.T) {
	spec := HDDSpec()
	spec.FlushThreshold = 0
	meanLat := func(n int) float64 {
		eng := sim.NewEngine()
		dev := NewDevice(eng, "d", spec)
		var latSum float64
		var ops int
		var issue func()
		issue = func() {
			dev.Submit(Read, 4e6, func(_ any, l float64) {
				latSum += l
				ops++
				if eng.Now() < 20 {
					issue()
				}
			}, nil)
		}
		for i := 0; i < n; i++ {
			issue()
		}
		eng.Run()
		return latSum / float64(ops)
	}
	if l1, l12 := meanLat(1), meanLat(12); l12 <= l1*2 {
		t.Fatalf("latency at depth 12 (%v) not well above depth 1 (%v)", l12, l1)
	}
}
