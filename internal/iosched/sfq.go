package iosched

import (
	"fmt"
	"math"
	"sort"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Coordinator supplies the global I/O service information a local
// scheduler needs to apply the DSFQ total-service rule: the cumulative
// service (cost units) an application has received on every node other
// than this one, as currently known from the Scheduling Broker.
type Coordinator interface {
	// OtherService takes the app's name and its index in the
	// scheduler's source, a hint the coordinator checks against the
	// name before trusting it.
	OtherService(app AppID, idx AppIdx) float64
}

// flowState is the per-application SFQ bookkeeping on one scheduler.
type flowState struct {
	app        AppID   // the app's name, resolved once when the flow opens
	lastFinish float64 // finish tag of the flow's most recent request
	lastOther  float64 // other-node service snapshot at last arrival
	seenOther  bool    // whether lastOther has been initialized
	// svc is the flow's slot in the scheduler's Accounting, taken at
	// its first completion so completions book without a map lookup.
	svc *AppService
}

// SFQ is a Start-time Fair Queueing scheduler with a bounded number of
// concurrently outstanding requests (the depth D), per Jin et al.'s
// SFQ(D). With a DepthController attached it becomes the paper's SFQ(D2),
// adapting D each control period. With a Coordinator attached it applies
// the DSFQ delay so that *total* cluster service is shared
// proportionally, not just local service.
type SFQ struct {
	eng  *sim.Engine
	dev  Backend
	src  WeightSource
	acct *Accounting

	queue  reqHeap
	flows  map[AppIdx]*flowState
	vtime  float64
	seq    uint64
	coord  Coordinator
	probe  Probe
	static int // static depth; used when ctrl == nil
	ctrl   *DepthController

	// coordSuspended gates the DSFQ delay rule: while true the
	// scheduler enforces pure local SFQ(D) fairness (graceful
	// degradation during coordination-plane outages).
	coordSuspended bool

	inflight int
	doneFn   sim.DoneFunc // cached complete method value
}

// NewSFQD builds a classic SFQ(D) scheduler with a static depth, whose
// requests' apps src numbers and weighs. A depth below 1 is an error.
func NewSFQD(eng *sim.Engine, dev Backend, src WeightSource, depth int) (*SFQ, error) {
	if depth < 1 {
		return nil, fmt.Errorf("iosched: SFQ(D) depth %d < 1", depth)
	}
	s := &SFQ{
		eng:    eng,
		dev:    dev,
		src:    src,
		acct:   NewAccounting(),
		flows:  make(map[AppIdx]*flowState),
		static: depth,
	}
	s.doneFn = s.complete
	return s, nil
}

// NewSFQD2 builds the paper's SFQ(D2): SFQ whose depth is driven by the
// supplied feedback controller, with src numbering and weighing its
// requests' apps. The controller is started immediately. An invalid
// controller configuration is an error.
func NewSFQD2(eng *sim.Engine, dev Backend, src WeightSource, cfg ControllerConfig) (*SFQ, error) {
	s := &SFQ{
		eng:   eng,
		dev:   dev,
		src:   src,
		acct:  NewAccounting(),
		flows: make(map[AppIdx]*flowState),
	}
	s.doneFn = s.complete
	ctrl, err := newDepthController(eng, cfg, func() {
		// Depth may have increased; try to fill the new slots.
		s.dispatch()
	})
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	return s, nil
}

// SetCoordinator attaches the distributed-coordination delay source.
// Passing nil disables coordination (the paper's "No Sync" mode).
func (s *SFQ) SetCoordinator(c Coordinator) { s.coord = c }

// SetProbe installs a lifecycle probe (tracing/auditing).
func (s *SFQ) SetProbe(p Probe) { s.probe = p }

// Coordinated reports whether a Coordinator is attached (the DSFQ
// delay rule is in force, so local service shares are intentionally
// skewed toward total-service fairness).
func (s *SFQ) Coordinated() bool { return s.coord != nil }

// CoordinationSuspended reports whether the delay rule is currently
// suspended (degraded to pure local fairness).
func (s *SFQ) CoordinationSuspended() bool { return s.coordSuspended }

// SuspendCoordination degrades the scheduler to pure local SFQ(D)
// fairness: the delay rule stops applying, and the tag debt flows have
// already accumulated from it is cancelled — per-flow virtual-time
// state and the tags of queued requests are clamped down to the
// current virtual time. Without the clamp a flow present on many nodes
// would enter the outage with tags far ahead of vtime (its delay debt
// grows at the remote service rate) and starve locally for the whole
// outage, the opposite of the guarantee degradation is meant to keep.
// Idempotent; a no-op effect-wise when no debt exists.
func (s *SFQ) SuspendCoordination() {
	if s.coordSuspended {
		return
	}
	s.coordSuspended = true
	// Cancel per-flow tag debt…
	for _, f := range s.flows {
		if f.lastFinish > s.vtime {
			f.lastFinish = s.vtime
		}
	}
	// …then replay local SFQ tagging over the queued requests in
	// arrival order: each request's tags shrink to where they would be
	// had the delay rule never applied (never grow — tags at or below
	// the replay position were fairly earned and are kept).
	if len(s.queue) > 0 {
		old := make([]*Request, len(s.queue))
		for i, e := range s.queue {
			old[i] = e.req
		}
		sort.Slice(old, func(i, j int) bool { return old[i].seq < old[j].seq })
		for _, r := range old {
			f := r.flow
			if replay := math.Max(s.vtime, f.lastFinish); r.startTag > replay {
				r.startTag = replay
				r.finishTag = replay + r.cost/r.weight
			}
			if r.finishTag > f.lastFinish {
				f.lastFinish = r.finishTag
			}
		}
		s.queue = s.queue[:0]
		for _, r := range old {
			s.queue.push(r)
		}
	}
}

// ResumeCoordination re-enables the delay rule after recovery. Every
// flow re-snapshots the remote-service totals at its next arrival
// instead of being charged the outage's accumulated delta — the
// stale-total clamp that keeps a returning node from being starved.
func (s *SFQ) ResumeCoordination() {
	if !s.coordSuspended {
		return
	}
	s.coordSuspended = false
	for _, f := range s.flows {
		f.seenOther = false
	}
}

// Name implements Scheduler.
func (s *SFQ) Name() string {
	if s.ctrl != nil {
		return "sfq(d2)"
	}
	return fmt.Sprintf("sfq(d=%d)", s.static)
}

// Queued implements Scheduler.
func (s *SFQ) Queued() int { return s.queue.Len() }

// InFlight implements Scheduler.
func (s *SFQ) InFlight() int { return s.inflight }

// Accounting implements Scheduler.
func (s *SFQ) Accounting() *Accounting { return s.acct }

// Depth returns the current dispatch bound.
func (s *SFQ) Depth() int {
	if s.ctrl != nil {
		return s.ctrl.Depth()
	}
	return s.static
}

// Controller returns the depth controller (nil for static SFQ(D)).
func (s *SFQ) Controller() *DepthController { return s.ctrl }

// VirtualTime returns the scheduler's current virtual time (the start
// tag of the most recently dispatched request).
func (s *SFQ) VirtualTime() float64 { return s.vtime }

// Submit implements Scheduler. Tags are computed per SFQ:
//
//	S(r) = max(v(arrival), F(prev_f) [+ δ_f/w_f])
//	F(r) = S(r) + cost(r)/w_f
//
// where δ_f is the DSFQ delay — the service flow f received on other
// nodes since its previous arrival here.
//
// The weight w_f is resolved through the scheduler's WeightSource right
// here, at tag time. A live reweight therefore takes effect on the
// flow's next arrival and cannot break tag monotonicity: S(r) is the
// max of the virtual time and the flow's previous finish tag, both of
// which only grow, and the new weight only scales the *increments*
// (cost/w and δ/w) added on top. Already-queued requests keep the tags
// they were admitted with — virtual time owes them the service they
// were promised at arrival.
func (s *SFQ) Submit(req *Request) error {
	if err := req.prepare(s.src); err != nil {
		return reject(req, err)
	}
	f := s.flows[req.AppIdx]
	if f == nil {
		f = &flowState{app: s.src.AppName(req.AppIdx), lastFinish: s.vtime}
		s.flows[req.AppIdx] = f
	}
	req.arrive = s.eng.Now()
	req.cost = s.dev.Cost(req.Class.OpKind(), req.Size)
	req.seq = s.seq
	s.seq++
	req.flow = f

	base := f.lastFinish
	if s.coord != nil && !s.coordSuspended {
		other := s.coord.OtherService(f.app, req.AppIdx)
		if !f.seenOther {
			// First arrival: no delay, just take the snapshot.
			f.lastOther = other
			f.seenOther = true
		} else if other > f.lastOther {
			base += (other - f.lastOther) / req.weight
			f.lastOther = other
		}
	}
	req.startTag = math.Max(s.vtime, base)
	req.finishTag = req.startTag + req.cost/req.weight
	f.lastFinish = req.finishTag

	s.queue.push(req)
	if s.probe != nil {
		s.probe.Observe(req, ProbeState{
			Event:    ProbeArrive,
			Time:     req.arrive,
			Queued:   s.queue.Len(),
			InFlight: s.inflight,
			Depth:    s.Depth(),
			VTime:    s.vtime,
		})
	}
	s.dispatch()
	return nil
}

// dispatch sends queued requests to the device while capacity remains.
func (s *SFQ) dispatch() {
	for s.queue.Len() > 0 && s.inflight < s.Depth() {
		req := s.queue.pop()
		s.vtime = req.startTag
		s.inflight++
		if s.probe != nil {
			s.probe.Observe(req, ProbeState{
				Event:    ProbeDispatch,
				Time:     s.eng.Now(),
				Queued:   s.queue.Len(),
				InFlight: s.inflight,
				Depth:    s.Depth(),
				VTime:    s.vtime,
			})
		}
		s.dev.Submit(req.Class.OpKind(), req.Size, s.doneFn, req)
	}
}

func (s *SFQ) complete(arg any, devLat float64) {
	req := arg.(*Request)
	s.inflight--
	f := req.flow
	if f.svc == nil {
		f.svc = s.acct.slot(f.app, req.AppIdx)
	}
	f.svc.add(req)
	if s.ctrl != nil {
		s.ctrl.Sample(devLat, req.Class.OpKind() == storage.Read)
	}
	// Refill the dispatch window before surfacing the completion so the
	// device never idles while the queue is backlogged.
	s.dispatch()
	finish(s.probe, req, ProbeState{
		Time:     s.eng.Now(),
		Queued:   s.queue.Len(),
		InFlight: s.inflight,
		Depth:    s.Depth(),
		VTime:    s.vtime,
	})
}

// reqHeap is a specialized min-heap of queued requests ordered by
// (startTag, seq). Each slot carries its ordering key inline next to
// the request pointer, so sifting compares adjacent memory and never
// dereferences a queued request; hand-rolled push/pop avoid
// container/heap's interface boxing and indirect calls.
type reqHeap []reqEntry

type reqEntry struct {
	startTag float64
	seq      uint64
	req      *Request
}

func (h reqHeap) Len() int { return len(h) }

func entryLess(a, b *reqEntry) bool {
	if a.startTag != b.startTag {
		return a.startTag < b.startTag
	}
	return a.seq < b.seq
}

func (h *reqHeap) push(r *Request) {
	e := reqEntry{startTag: r.startTag, seq: r.seq, req: r}
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&e, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *reqHeap) pop() *Request {
	q := *h
	min := q[0].req
	last := len(q) - 1
	e := q[last]
	q[last] = reqEntry{}
	q = q[:last]
	*h = q
	if last == 0 {
		return min
	}
	// Sift the relocated tail entry down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if rc := child + 1; rc < last && entryLess(&q[rc], &q[child]) {
			child = rc
		}
		if !entryLess(&q[child], &e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
	return min
}
