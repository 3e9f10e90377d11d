package sim

import (
	"testing"
)

// BenchmarkEngineEventLoop measures the steady-state cost of one
// schedule/cancel/fire cycle. With the generation-counted freelist and
// the specialized heap it must report 0 allocs/op — CI fails otherwise.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	cycle := func() {
		doomed := e.Schedule(1.0, nop)
		e.Schedule(0.5, nop)
		e.Schedule(1.5, nop)
		e.Cancel(doomed)
		e.Run()
	}
	// Warm the freelist and heap capacity so one-time growth is not
	// attributed to the measured iterations (matters at -benchtime 1x).
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkPSResourceChurn measures submit/advance/complete churn on a
// processor-sharing resource with a concurrency-dependent capacity
// curve and ~32 jobs in flight — the pattern every simulated device
// produces under load.
func BenchmarkPSResourceChurn(b *testing.B) {
	e := NewEngine()
	curve := func(n int) float64 {
		if n > 4 {
			return 90
		}
		return 100
	}
	r := NewPSResource(e, "disk", curve)
	for i := 0; i < 64; i++ { // warm up the job heap and event freelist
		r.Submit(1+float64(i%17)*3.7, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit(1+float64(i%17)*3.7, nil, nil)
		for r.InFlight() > 32 {
			if !e.Step() {
				b.Fatal("engine drained with jobs in flight")
			}
		}
	}
}
