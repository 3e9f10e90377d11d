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
// modeling. The latency is constant, so requests complete in the order
// they arrive: Submit queues (done, arg) and schedules one cached
// method value, and nothing allocates per request.
type benchDev struct {
	eng      *sim.Engine
	inDevice []benchOp // submitted, not yet completed, oldest first
	fire     func()    // cached complete method value
}

type benchOp struct {
	done sim.DoneFunc
	arg  any
}

const benchLatency = 0.001

func newBenchDev(eng *sim.Engine) *benchDev {
	d := &benchDev{eng: eng}
	d.fire = d.complete
	return d
}

func (d *benchDev) Cost(kind storage.OpKind, size float64) float64 { return size }

func (d *benchDev) Submit(kind storage.OpKind, size float64, done sim.DoneFunc, arg any) {
	d.inDevice = append(d.inDevice, benchOp{done, arg})
	d.eng.Schedule(benchLatency, d.fire)
}

// complete finishes the oldest request. At most the scheduler's depth
// is in the device, so the shift is short.
func (d *benchDev) complete() {
	op := d.inDevice[0]
	n := copy(d.inDevice, d.inDevice[1:])
	d.inDevice[n] = benchOp{}
	d.inDevice = d.inDevice[:n]
	op.done(op.arg, benchLatency)
}

// BenchmarkSFQSubmitDispatch drives a closed loop of requests from four
// weighted flows through SFQ(D): each op is one request's full
// submit → tag → queue → dispatch → complete cycle.
func BenchmarkSFQSubmitDispatch(b *testing.B) {
	eng := sim.NewEngine()
	benchSubmitDispatch(b, eng, mustSFQD(b, eng, newBenchDev(eng), 4))
}

// risingCoord is a Coordinator whose other-node service rises on every
// query, so SFQ applies the DSFQ delay on every arrival after a flow's
// first.
type risingCoord struct{ other float64 }

func (c *risingCoord) OtherService(AppIdx) float64 {
	c.other += 1000
	return c.other
}

// BenchmarkSFQCoordinatedSubmit is BenchmarkSFQSubmitDispatch with a
// coordinator attached: each op's submit also asks the coordinator for
// the app's remote service and charges the delay to its start tag.
func BenchmarkSFQCoordinatedSubmit(b *testing.B) {
	eng := sim.NewEngine()
	s := mustSFQD(b, eng, newBenchDev(eng), 4)
	s.SetCoordinator(&risingCoord{})
	benchSubmitDispatch(b, eng, s)
}

// benchSubmitDispatch runs b.N requests from four weighted flows through
// s in a closed loop of 64.
func benchSubmitDispatch(b *testing.B, eng *sim.Engine, s *SFQ) {
	const window = 64
	reqs := make([]*Request, window)
	done, submitted, target := 0, 0, 0
	for i := range reqs {
		r := &Request{
			AppIdx: weigh(AppID(fmt.Sprintf("app%d", i%4)), float64(1+i%4%3)),
			Class:  PersistentRead,
			Size:   1000,
		}
		r.Done = DoneFunc(func(*Request, float64) {
			done++
			if submitted < target {
				submitted++
				s.Submit(r)
			}
		})
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

func newRoundTrip(tb testing.TB, window int) (*roundTrip, []*Request) {
	eng := sim.NewEngine()
	rt := &roundTrip{eng: eng, s: mustSFQD(tb, eng, storage.NewDevice(eng, "hdd", storage.HDDSpec()), 4)}
	reqs := make([]*Request, window)
	for i := range reqs {
		r := &Request{
			AppIdx: weigh(AppID(fmt.Sprintf("app%d", i%4)), float64(1+i%4%3)),
			Class:  PersistentRead,
			Size:   64 << 10,
		}
		r.Done = DoneFunc(func(*Request, float64) {
			rt.done++
			if rt.sent < rt.target {
				rt.sent++
				if err := rt.s.Submit(r); err != nil {
					panic(err)
				}
			}
		})
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
	rt, reqs := newRoundTrip(b, 64)
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

// deepNode is one scheduler of BenchmarkSFQDeepQueue and the Done of
// its pooled requests: each completion draws a fresh record from the
// node's pool and submits it for the same app, the way the scale pump's
// arrivals keep a hollow node's queue deep.
type deepNode struct {
	s    *SFQ
	pool RequestPool
	done *int
}

func (d *deepNode) Complete(req *Request, _ float64) {
	*d.done++
	r := d.pool.Get()
	r.AppIdx, r.Class, r.Size, r.Done = req.AppIdx, req.Class, req.Size, d
	if err := d.s.Submit(r); err != nil {
		panic(err)
	}
}

// BenchmarkSFQDeepQueue is the hollow-node scheduler shape without the
// fabric: 1000 SFQ(D=4) schedulers over flat devices on one engine,
// each holding about 350 queued pooled requests from four of sixteen
// weighted apps. Each op is one request's submit → tag → queue →
// dispatch → device service → complete, its record recycled through
// its node's pool, so it must report 0 allocs/op — CI fails otherwise.
func BenchmarkSFQDeepQueue(b *testing.B) {
	const scheds, depth, backlog, apps = 1000, 4, 354, 16
	var idx [apps]AppIdx
	for a := range idx {
		idx[a] = weigh(AppID(fmt.Sprintf("deep%d", a)), float64(1+a%4))
	}
	eng := sim.NewEngine()
	done := 0
	nodes := make([]deepNode, scheds)
	for i := range nodes {
		d := &nodes[i]
		d.s = mustSFQD(b, eng, storage.NewDevice(eng, "d", flatSpec()), depth)
		d.done = &done
		for k := 0; k < backlog; k++ {
			r := d.pool.Get()
			r.AppIdx, r.Class, r.Size, r.Done = idx[(i+k%4)%apps], PersistentRead, 5e5+float64(k%7)*2.5e5, d
			if err := d.s.Submit(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm every flow's accounting slot and every device's job free
	// list: each scheduler completes 16 requests.
	step := func(target int) {
		for done < target {
			if !eng.Step() {
				b.Fatal("engine drained with requests outstanding")
			}
		}
	}
	step(16 * scheds)
	b.ReportAllocs()
	b.ResetTimer()
	step(done + b.N)
}
