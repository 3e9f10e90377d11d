// Package cgroups models the cgroups-blkio-based baselines the paper
// compares against in Section 7.4. Both modes share cgroups' fundamental
// limitation: they can only control I/Os issued directly to the local
// file system (intermediate I/O). Distributed HDFS I/O is serviced by
// the shared datanode daemon and passes through unscheduled — the wiring
// in the cluster package routes persistent I/O around these schedulers,
// reproducing that blind spot.
//
// Weight mode approximates blkio.weight: proportional sharing of the
// local device among competing applications. Throttle mode approximates
// blkio.throttle.*_bps_device: a hard per-application bandwidth cap,
// non-work-conserving by construction.
package cgroups

import (
	"container/heap"
	"fmt"

	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Weight is the blkio.weight baseline: CFQ group scheduling applied to
// the I/O the cgroup controller can actually attribute. Reads are
// weight-scheduled through an SFQ(D) queue; buffered writes reach the
// device through the kernel write-back path *outside* the issuing
// task's cgroup, so they pass through uncontrolled — the second half of
// why the paper finds cgroups "can only improve the query performance
// by 1.2%".
type Weight struct {
	eng      *sim.Engine
	dev      *storage.Device
	reads    *iosched.SFQ
	acct     *iosched.Accounting
	probe    iosched.Probe
	inflight int
	writeSeq uint64
}

// NewWeight builds the proportional-sharing cgroups baseline for one
// device. It must only be wired to intermediate (local) I/O.
func NewWeight(eng *sim.Engine, dev *storage.Device, depth int) *Weight {
	w := &Weight{
		eng:   eng,
		dev:   dev,
		reads: iosched.NewSFQD(eng, dev, depth),
		acct:  iosched.NewAccounting(),
	}
	w.SetProbe(nil)
	return w
}

var _ iosched.Scheduler = (*Weight)(nil)

// Name implements iosched.Scheduler.
func (w *Weight) Name() string { return "cgroups-weight" }

// Queued implements iosched.Scheduler.
func (w *Weight) Queued() int { return w.reads.Queued() }

// InFlight implements iosched.Scheduler.
func (w *Weight) InFlight() int { return w.reads.InFlight() + w.inflight }

// Accounting implements iosched.Scheduler. Read-side service is
// accounted inside the inner SFQ; the merged view combines both.
func (w *Weight) Accounting() *iosched.Accounting { return w.acct }

// SetProbe installs a lifecycle probe. The weight-scheduled read path
// reports through the inner SFQ (full tag/depth state), whose own
// first probe books each completed read into the merged account; the
// uncontrolled write-back path reports its own pass-through events.
func (w *Weight) SetProbe(p iosched.Probe) {
	w.probe = p
	w.reads.SetProbe(iosched.MultiProbe(iosched.ProbeFunc(w.bookRead), p))
}

// bookRead accounts a completed read's service in the merged view.
func (w *Weight) bookRead(req *iosched.Request, st iosched.ProbeState) {
	if st.Event == iosched.ProbeComplete {
		w.acct.AddExternal(req, w.dev.Cost(req.Class.OpKind(), req.Size))
	}
}

// ReadSFQ exposes the inner weight-scheduled read queue, so auditors
// can apply the full SFQ invariant set to the controlled (read) half of
// this scheduler's traffic.
func (w *Weight) ReadSFQ() *iosched.SFQ { return w.reads }

// Submit implements iosched.Scheduler.
func (w *Weight) Submit(req *iosched.Request) error {
	if req.Class.OpKind() == storage.Read {
		return w.reads.Submit(req)
	}
	// Buffered write-back: dispatched immediately, unattributed. The
	// request still resolves its weight so accounting and audit see a
	// tagged request, even though no scheduling decision uses it.
	if err := req.Resolve(); err != nil {
		return err
	}
	arrive := w.eng.Now()
	req.MarkExternalArrival(w.writeSeq, arrive)
	w.writeSeq++
	w.inflight++
	if w.probe != nil {
		st := iosched.ProbeState{Event: iosched.ProbeArrive, Time: arrive, InFlight: w.inflight}
		w.probe.Observe(req, st)
		st.Event = iosched.ProbeDispatch
		w.probe.Observe(req, st)
	}
	w.dev.Submit(storage.Write, req.Size, func(float64) {
		w.inflight--
		lat := w.eng.Now() - arrive
		w.acct.AddExternal(req, w.dev.Cost(storage.Write, req.Size))
		if w.probe != nil {
			w.probe.Observe(req, iosched.ProbeState{
				Event:    iosched.ProbeComplete,
				Time:     w.eng.Now(),
				InFlight: w.inflight,
				Latency:  lat,
			})
		}
		if req.OnDone != nil {
			req.OnDone(lat)
		}
	})
	return nil
}

// Throttle is the blkio throttling baseline: applications with a
// configured cap are released by a token bucket at that rate; everything
// else passes straight through. Throttled requests wait even when the
// device is idle (non-work-conserving), which is exactly why the paper
// finds it underutilizes storage and slows the capped application by up
// to 16% more than IBIS.
type Throttle struct {
	eng      *sim.Engine
	dev      *storage.Device
	acct     *iosched.Accounting
	probe    iosched.Probe
	limits   map[iosched.AppID]float64
	buckets  map[iosched.AppID]*bucket
	inflight int
	queued   int
	seq      uint64
}

type bucket struct {
	rate    float64 // bytes/second
	tokens  float64
	last    float64
	waiting waitHeap
	release sim.Event
	seq     uint64
}

type waitItem struct {
	req  *throttledReq
	seq  uint64
	cost float64
}

type throttledReq struct {
	req    *iosched.Request
	arrive float64
}

// NewThrottle builds the throttling baseline. limits maps each capped
// application to its bandwidth cap in bytes/second; applications absent
// from the map are uncapped. Limits arrive from the public cluster
// config, so a non-positive rate is reported as an input error rather
// than a panic.
func NewThrottle(eng *sim.Engine, dev *storage.Device, limits map[iosched.AppID]float64) (*Throttle, error) {
	for app, rate := range limits {
		if rate <= 0 {
			return nil, fmt.Errorf("cgroups: throttle rate for %q must be positive, got %g", app, rate)
		}
	}
	t := &Throttle{
		eng:     eng,
		dev:     dev,
		acct:    iosched.NewAccounting(),
		limits:  limits,
		buckets: make(map[iosched.AppID]*bucket),
	}
	return t, nil
}

var _ iosched.Scheduler = (*Throttle)(nil)

// Name implements iosched.Scheduler.
func (t *Throttle) Name() string { return "cgroups-throttle" }

// Queued implements iosched.Scheduler.
func (t *Throttle) Queued() int { return t.queued }

// InFlight implements iosched.Scheduler.
func (t *Throttle) InFlight() int { return t.inflight }

// Accounting implements iosched.Scheduler.
func (t *Throttle) Accounting() *iosched.Accounting { return t.acct }

// SetProbe installs a lifecycle probe.
func (t *Throttle) SetProbe(p iosched.Probe) { t.probe = p }

// Submit implements iosched.Scheduler. Uncapped apps dispatch
// immediately (FIFO behaviour); capped apps consume tokens. Buffered
// writes bypass the throttle entirely — blkio v1 cannot attribute
// write-back I/O to the issuing cgroup.
func (t *Throttle) Submit(req *iosched.Request) error {
	if err := req.Resolve(); err != nil {
		return err
	}
	rate, capped := t.limits[req.App]
	if req.Class.OpKind() == storage.Write {
		capped = false
	}
	tr := &throttledReq{req: req, arrive: t.eng.Now()}
	req.MarkExternalArrival(t.seq, tr.arrive)
	t.seq++
	if t.probe != nil {
		t.probe.Observe(req, iosched.ProbeState{
			Event:    iosched.ProbeArrive,
			Time:     tr.arrive,
			Queued:   t.queued,
			InFlight: t.inflight,
		})
	}
	if !capped {
		t.dispatch(tr)
		return nil
	}
	b := t.buckets[req.App]
	if b == nil {
		b = &bucket{rate: rate, last: t.eng.Now()}
		t.buckets[req.App] = b
	}
	t.refill(b)
	if len(b.waiting) == 0 && b.tokens >= req.Size {
		b.tokens -= req.Size
		t.dispatch(tr)
		return nil
	}
	heap.Push(&b.waiting, &waitItem{req: tr, seq: b.seq, cost: req.Size})
	b.seq++
	t.queued++
	t.armRelease(b)
	return nil
}

func (t *Throttle) refill(b *bucket) {
	now := t.eng.Now()
	b.tokens += (now - b.last) * b.rate
	b.last = now
	// Cap the burst at one second of tokens, as blkio does in effect —
	// but never below the head-of-line request's cost, or a request
	// larger than one second's budget could never be released.
	burst := b.rate
	if len(b.waiting) > 0 && b.waiting[0].cost > burst {
		burst = b.waiting[0].cost
	}
	if b.tokens > burst {
		b.tokens = burst
	}
}

// armRelease schedules the next token-driven release for the bucket.
func (t *Throttle) armRelease(b *bucket) {
	if b.release.Scheduled() || len(b.waiting) == 0 {
		return
	}
	need := b.waiting[0].cost - b.tokens
	delay := 0.0
	if need > 0 {
		delay = need / b.rate
	}
	b.release = t.eng.Schedule(delay, func() {
		b.release = sim.Event{}
		t.refill(b)
		// Release within a small epsilon of the cost so float rounding
		// in the refill arithmetic cannot stall the queue forever.
		for len(b.waiting) > 0 && b.tokens >= b.waiting[0].cost-tokenEps(b.waiting[0].cost) {
			item := heap.Pop(&b.waiting).(*waitItem)
			b.tokens -= item.cost
			if b.tokens < 0 {
				b.tokens = 0
			}
			t.queued--
			t.dispatch(item.req)
		}
		t.armRelease(b)
	})
}

func (t *Throttle) dispatch(tr *throttledReq) {
	req := tr.req
	t.inflight++
	if t.probe != nil {
		t.probe.Observe(req, iosched.ProbeState{
			Event:    iosched.ProbeDispatch,
			Time:     t.eng.Now(),
			Queued:   t.queued,
			InFlight: t.inflight,
		})
	}
	t.dev.Submit(req.Class.OpKind(), req.Size, func(float64) {
		t.inflight--
		lat := t.eng.Now() - tr.arrive
		t.account(req)
		if t.probe != nil {
			t.probe.Observe(req, iosched.ProbeState{
				Event:    iosched.ProbeComplete,
				Time:     t.eng.Now(),
				Queued:   t.queued,
				InFlight: t.inflight,
				Latency:  lat,
			})
		}
		if req.OnDone != nil {
			req.OnDone(lat)
		}
	})
}

// account records completed service. Throttle computes its own cost via
// the device so the Accounting cost vector stays comparable with the
// SFQ-based schedulers.
func (t *Throttle) account(req *iosched.Request) {
	// Recreate the request-side bookkeeping Submit would have done in
	// the iosched package.
	clone := *req
	cloneCost := t.dev.Cost(req.Class.OpKind(), req.Size)
	t.acct.AddExternal(&clone, cloneCost)
}

// tokenEps is the release slop: absolute plus relative to the cost.
func tokenEps(cost float64) float64 { return 1e-9 + cost*1e-9 }

// waitHeap orders waiting requests FIFO by sequence.
type waitHeap []*waitItem

func (h waitHeap) Len() int           { return len(h) }
func (h waitHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h waitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waitHeap) Push(x any)        { *h = append(*h, x.(*waitItem)) }
func (h *waitHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return popped
}
