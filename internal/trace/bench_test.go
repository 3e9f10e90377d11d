package trace

import (
	"fmt"
	"slices"
	"testing"

	"ibis/internal/iosched"
)

// fullTrace fills a tracer with 8 rings of capacity records each, from
// one scheduler per shard (node = shard) running a steady stream of
// lifecycles from four apps in two classes: arrivals every 2 ms, each
// dispatched a few ms later and completed 10 ms after that, so queued
// and in-flight lifecycles overlap and every ring wraps. Shards start
// 0.5 ms apart, so the merge interleaves them.
func fullTrace(capacity int) *Tracer {
	tr := New(capacity, bound("wordcount", "terasort", "grep", "sort"))
	type ev struct {
		t   float64
		e   iosched.ProbeEvent
		seq uint64
	}
	for shard := 0; shard < 8; shard++ {
		w := tr.Probe(shard, shard, DevHDFS).(Writer)
		n := capacity/3 + 64
		evs := make([]ev, 0, 3*n)
		for k := 0; k < n; k++ {
			arrive := 0.0005*float64(shard) + 0.002*float64(k)
			dispatch := arrive + 0.001*float64(k%7)
			evs = append(evs, ev{arrive, iosched.ProbeArrive, uint64(k)}, ev{dispatch, iosched.ProbeDispatch, uint64(k)}, ev{dispatch + 0.01, iosched.ProbeComplete, uint64(k)})
		}
		slices.SortStableFunc(evs, func(x, y ev) int {
			if x.t < y.t {
				return -1
			}
			if x.t > y.t {
				return 1
			}
			return 0
		})
		for _, e := range evs {
			w.put(e.e, e.t, iosched.AppIdx(e.seq%4), iosched.Class(e.seq%2), e.seq, 1, float64(e.seq), float64(e.seq)+1, 0.01)
		}
	}
	return tr
}

var requestsSink []RequestTrace

// BenchmarkTracerRequests assembles every lifecycle of a full 8-ring
// trace, at two ring sizes: CI pins that allocs/op is the same at both,
// so the assembly's allocation count does not grow with the records.
func BenchmarkTracerRequests(b *testing.B) {
	for _, capacity := range []int{1 << 12, 1 << 15} {
		b.Run(fmt.Sprintf("ring=%d", capacity), func(b *testing.B) {
			tr := fullTrace(capacity)
			if n := len(tr.Requests()); n < capacity/3*8 {
				b.Fatalf("%d lifecycles from %d records", n, tr.Len())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				requestsSink = tr.Requests()
			}
		})
	}
}

// BenchmarkTracerObserve is the tracer's write path: one Writer.Observe
// per op, through the probe interface as a scheduler calls it, into a
// ring that has wrapped, with requests from four apps. CI pins it at 0
// allocs/op.
func BenchmarkTracerObserve(b *testing.B) {
	apps := []iosched.AppID{"wordcount", "terasort", "grep", "sort"}
	reqs := make([]iosched.Request, len(apps))
	for i := range apps {
		reqs[i] = iosched.Request{AppIdx: iosched.AppIdx(i), Class: iosched.Class(i % 2), Size: 1e6}
	}
	tr := New(1<<12, bound(apps...))
	p := tr.Probe(0, 0, DevHDFS)
	st := iosched.ProbeState{Event: iosched.ProbeArrive, Queued: 3, InFlight: 2, Depth: 4}
	for i := 0; i < 2*tr.Capacity(); i++ {
		p.Observe(&reqs[i%len(reqs)], st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Time = float64(i)
		p.Observe(&reqs[i%len(reqs)], st)
	}
}
