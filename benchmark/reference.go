package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// The reference kernel is a fixed piece of ordinary Go work — a
// discrete-event loop over heap objects and a JSON/sort/map pass over
// records — that a run times in its own child after every repetition.
// The shared VMs the benchmark runs on slow down and speed up by 20–40%
// over minutes, and the simulator and this kernel slow down together.
// Dividing each repetition's times by the kernel's time next to it takes
// most of that drift out: a run reports its times in seconds of a host
// on which the kernel takes refNominalS.
//
// The kernel uses nothing from the repository, so a change to the
// simulator moves the reported times and never the kernel. Changing the
// kernel or refNominalS rescales every reported time: results from
// before and after such a change cannot be compared.

// refNominalS is the kernel time the reported times are scaled to. It is
// about the kernel's median wall time on the reference box (Intel Xeon
// VM, 2 vCPUs, Go 1.24.0) when that box is idle, so reported times read
// close to its own seconds.
const refNominalS = 1.0

// refKernel is the kernel a "ref" child runs. Tests replace it with a
// tiny one.
var refKernel = referenceKernel

// referenceKernel runs the kernel once and returns a checksum of its
// results, which is the same on every run.
func referenceKernel() string {
	return fmt.Sprintf("%016x-%016x", refEventLoop(), refRecords())
}

// refRand is the xorshift64 generator the kernel draws from.
type refRand uint64

func (r *refRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = refRand(x)
	return x
}

type refObject struct {
	id    uint64
	peer  *refObject
	hist  []uint64
	count int
}

type refEvent struct {
	at  uint64
	obj *refObject
}

// refEventLoop pops timed events off a binary heap, each touching an
// object reached through a map and scheduling a successor, with steady
// allocation churn: the caches, the allocator and the GC all work.
func refEventLoop() uint64 {
	const objects, pending, events = 60_000, 20_000, 2_000_000
	rng := refRand(12345)
	byID := make(map[uint64]*refObject, objects)
	var prev *refObject
	for i := uint64(0); i < objects; i++ {
		o := &refObject{id: i, peer: prev}
		byID[i] = o
		prev = o
	}
	heap := make([]refEvent, 0, pending)
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		e := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return e
	}
	for i := 0; i < pending; i++ {
		push(refEvent{rng.next() % 1000, byID[rng.next()%objects]})
	}
	sum := uint64(0)
	for i := 0; i < events; i++ {
		e := pop()
		o := e.obj
		o.count++
		if len(o.hist) < 8 {
			o.hist = append(o.hist, e.at)
		} else {
			o.hist = make([]uint64, 0, 8)
		}
		if o.peer != nil {
			sum += o.peer.id ^ e.at
		}
		push(refEvent{e.at + 1 + rng.next()%1000, byID[rng.next()%objects]})
	}
	return sum
}

type refRecord struct {
	Name  string
	Tags  []string
	Value float64
	N     int
}

// refRecords round-trips records through encoding/json, sorts them by
// name and sums their values by tag in a map.
func refRecords() uint64 {
	const rounds, records = 4, 40_000
	rng := refRand(7)
	h := fnv.New64a()
	for round := 0; round < rounds; round++ {
		recs := make([]refRecord, records)
		for i := range recs {
			recs[i] = refRecord{
				Name:  strconv.FormatUint(rng.next()%100_000, 36),
				Tags:  []string{strconv.Itoa(i % 97), "t"},
				Value: float64(rng.next()%1000) / 8,
				N:     i,
			}
		}
		b, err := json.Marshal(recs)
		if err != nil {
			panic(err)
		}
		var back []refRecord
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		sort.SliceStable(back, func(i, j int) bool { return back[i].Name < back[j].Name })
		byTag := map[string]float64{}
		for _, r := range back {
			byTag[r.Tags[0]] += r.Value
		}
		tags := make([]string, 0, len(byTag))
		for t := range byTag {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		for _, t := range tags {
			fmt.Fprintf(h, "%s=%g;", t, byTag[t])
		}
		fmt.Fprintf(h, "%s|", back[0].Name)
	}
	return h.Sum64()
}
