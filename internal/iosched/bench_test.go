package iosched

import (
	"fmt"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// benchDev is a minimal Backend: unit cost per byte and a fixed
// in-device latency delivered through the engine, so the benchmark
// isolates scheduler tagging/queueing/dispatch cost from device
// modeling.
type benchDev struct {
	eng *sim.Engine
}

func (d benchDev) Cost(kind storage.OpKind, size float64) float64 { return size }

func (d benchDev) Submit(kind storage.OpKind, size float64, done sim.DoneFunc, arg any) {
	d.eng.Schedule(0.001, func() { done(arg, 0.001) })
}

// BenchmarkSFQSubmitDispatch drives a closed loop of requests from four
// weighted flows through SFQ(D): each op is one request's full
// submit → tag → queue → dispatch → complete cycle.
func BenchmarkSFQSubmitDispatch(b *testing.B) {
	eng := sim.NewEngine()
	s := NewSFQD(eng, benchDev{eng}, 4)
	const window = 64
	reqs := make([]*Request, window)
	done, submitted, target := 0, 0, 0
	for i := range reqs {
		r := &Request{
			App:    AppID(fmt.Sprintf("app%d", i%4)),
			Shares: FixedWeight(float64(1 + i%3)),
			Class:  PersistentRead,
			Size:   1000,
		}
		r.OnDone = func(float64) {
			done++
			if submitted < target {
				submitted++
				s.Submit(r)
			}
		}
		reqs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	target = b.N
	first := window
	if first > target {
		first = target
	}
	submitted = first
	for _, r := range reqs[:first] {
		s.Submit(r)
	}
	for done < target {
		if !eng.Step() {
			b.Fatal("engine drained before all requests completed")
		}
	}
}

// roundTrip is a closed loop of SFQ(D) over a real HDD device: window
// requests from four weighted flows, each resubmitted on completion
// until target submissions have been made.
type roundTrip struct {
	eng                *sim.Engine
	s                  *SFQ
	done, sent, target int
}

func newRoundTrip(window int) (*roundTrip, []*Request) {
	eng := sim.NewEngine()
	rt := &roundTrip{eng: eng, s: NewSFQD(eng, storage.NewDevice(eng, "hdd", storage.HDDSpec()), 4)}
	reqs := make([]*Request, window)
	for i := range reqs {
		r := &Request{
			App:    AppID(fmt.Sprintf("app%d", i%4)),
			Shares: FixedWeight(float64(1 + i%3)),
			Class:  PersistentRead,
			Size:   64 << 10,
		}
		r.OnDone = func(float64) {
			rt.done++
			if rt.sent < rt.target {
				rt.sent++
				if err := rt.s.Submit(r); err != nil {
					panic(err)
				}
			}
		}
		reqs[i] = r
	}
	return rt, reqs
}

// run submits the first window and steps the engine until target
// requests have completed.
func (rt *roundTrip) run(reqs []*Request, target int) error {
	rt.done, rt.target = 0, target
	rt.sent = min(len(reqs), target)
	for _, r := range reqs[:rt.sent] {
		if err := rt.s.Submit(r); err != nil {
			return err
		}
	}
	for rt.done < target {
		if !rt.eng.Step() {
			return fmt.Errorf("engine drained after %d of %d completions", rt.done, target)
		}
	}
	return nil
}

// BenchmarkSFQDeviceRoundTrip drives SFQ(D) over a real storage.Device
// (HDDSpec): each op is one request's submit → tag → queue → dispatch
// → device service → complete cycle. The whole path recycles its
// records, so it must report 0 allocs/op — CI fails otherwise.
func BenchmarkSFQDeviceRoundTrip(b *testing.B) {
	rt, reqs := newRoundTrip(64)
	// Warm the flow table, accounting slots, heaps and free lists.
	if err := rt.run(reqs, 256); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := rt.run(reqs, b.N); err != nil {
		b.Fatal(err)
	}
}
