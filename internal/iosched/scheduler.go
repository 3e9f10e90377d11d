package iosched

import (
	"slices"
	"strings"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Backend is the resource a scheduler dispatches to. *storage.Device
// satisfies it; the cluster package also adapts NIC links so the same
// schedulers can manage network bandwidth (the paper's OpenFlow-style
// extension).
type Backend interface {
	// Cost converts an operation to service units.
	Cost(kind storage.OpKind, size float64) float64
	// Submit starts servicing. done, if non-nil, fires with arg and the
	// in-resource latency; schedulers pass a method value cached at
	// construction and the request as arg, so dispatch allocates
	// nothing.
	Submit(kind storage.OpKind, size float64, done sim.DoneFunc, arg any)
}

var _ Backend = (*storage.Device)(nil)

// Scheduler is the interposition seam: every I/O on a datanode device
// passes through exactly one Scheduler, which decides when to dispatch
// it to the underlying storage.
type Scheduler interface {
	// Submit presents a tagged request. On success the scheduler owns
	// it from this point and will eventually dispatch it and invoke
	// Done. A non-nil error means the request was rejected (malformed
	// or its weight failed to resolve): the scheduler took no
	// ownership, and a pooled record is back in its pool.
	Submit(*Request) error
	// Name identifies the policy, e.g. "native", "sfq(d=4)", "sfq(d2)".
	Name() string
	// Queued returns the number of requests waiting for dispatch.
	Queued() int
	// InFlight returns the number of requests dispatched to the device
	// and not yet completed.
	InFlight() int
	// Accounting exposes per-application service counters.
	Accounting() *Accounting
	// SetProbe installs the lifecycle probe that sees every request's
	// arrival, dispatch and completion (nil removes it). It is the
	// only way to observe a scheduler; use MultiProbe to install
	// several.
	SetProbe(Probe)
}

// AppService records the cumulative service delivered to one app by one
// scheduler.
type AppService struct {
	// Bytes is the raw data volume serviced.
	Bytes float64
	// Cost is the normalized service (device cost units); this is what
	// proportional sharing and the DSFQ delay operate on.
	Cost float64
	// Requests is the completed request count.
	Requests uint64
	// ByClass splits bytes per I/O class.
	ByClass [numClasses]float64
}

// Accounting tracks cumulative per-app service for a scheduler. It backs
// both fairness measurements and the broker's coordination vectors.
// A completion books by the request's index; the app's name is resolved
// once, at its first completion, to keep the entries sorted by app name
// — the order the broker folds a vector in — so a lookup by name is a
// binary search and the vector needs no sort.
type Accounting struct {
	src WeightSource
	// byIdx finds an app's entry by index. It is a map, not a slice
	// indexed by AppIdx: a hollow node's scheduler serves a few apps of
	// a tree that numbers thousands.
	byIdx map[AppIdx]*appAccount
	apps  []*appAccount // sorted by name
}

type appAccount struct {
	app AppID
	idx AppIdx
	AppService
}

// AppCost is one entry of a scheduler's service vector: an app, as its
// index in the scheduler's share tree, and the cumulative cost it
// received.
type AppCost struct {
	Idx  AppIdx
	Cost float64
}

// NewAccounting returns an empty account book for the apps src numbers.
func NewAccounting(src WeightSource) *Accounting {
	return &Accounting{src: src, byIdx: make(map[AppIdx]*appAccount)}
}

// Add books a completed request at the device cost its scheduler
// assigned at submission.
func (a *Accounting) Add(req *Request) { a.slot(req.AppIdx).add(req) }

// slot returns the counters of app idx, creating them on first use. The
// pointer stays valid for the book's lifetime, so a scheduler may cache
// it per flow; it must only be taken at a completion, so that Apps lists
// an app from its first booked request on.
func (a *Accounting) slot(idx AppIdx) *AppService {
	e := a.byIdx[idx]
	if e == nil {
		e = &appAccount{app: a.src.AppName(idx), idx: idx}
		i, _ := a.find(e.app)
		a.apps = slices.Insert(a.apps, i, e)
		a.byIdx[idx] = e
	}
	return &e.AppService
}

func (a *Accounting) find(app AppID) (int, bool) {
	return slices.BinarySearchFunc(a.apps, app, func(e *appAccount, app AppID) int {
		return strings.Compare(string(e.app), string(app))
	})
}

func (s *AppService) add(req *Request) {
	s.Bytes += req.Size
	s.Cost += req.cost
	s.Requests++
	s.ByClass[req.Class] += req.Size
}

// Service returns the counters for one app (zero value if unseen).
func (a *Accounting) Service(app AppID) AppService {
	if i, ok := a.find(app); ok {
		return a.apps[i].AppService
	}
	return AppService{}
}

// Apps returns the app IDs seen, sorted.
func (a *Accounting) Apps() []AppID {
	ids := make([]AppID, len(a.apps))
	for i, e := range a.apps {
		ids[i] = e.app
	}
	return ids
}

// CostVector returns a copy of the per-app cumulative cost, sorted by
// app name — the message a local scheduler sends the Scheduling Broker
// each period.
func (a *Accounting) CostVector() []AppCost {
	v := make([]AppCost, len(a.apps))
	for i, e := range a.apps {
		v[i] = AppCost{Idx: e.idx, Cost: e.Cost}
	}
	return v
}

// TotalBytes sums serviced bytes across apps.
func (a *Accounting) TotalBytes() float64 {
	t := 0.0
	for _, e := range a.apps {
		t += e.Bytes
	}
	return t
}

// FIFO is the native baseline: requests are forwarded to the device the
// moment they arrive, with no admission control at all — TeraGen's I/Os
// "are sent to storage as soon as they come without any control".
type FIFO struct {
	eng      *sim.Engine
	dev      Backend
	src      WeightSource
	acct     *Accounting
	probe    Probe
	inflight int
	seq      uint64
	doneFn   sim.DoneFunc // cached complete method value
}

// NewFIFO builds the native pass-through scheduler for a device, whose
// requests' apps src numbers and weighs.
func NewFIFO(eng *sim.Engine, dev Backend, src WeightSource) *FIFO {
	f := &FIFO{eng: eng, dev: dev, src: src, acct: NewAccounting(src)}
	f.doneFn = f.complete
	return f
}

// SetProbe installs a lifecycle probe (tracing/auditing).
func (f *FIFO) SetProbe(p Probe) { f.probe = p }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "native" }

// Queued implements Scheduler; FIFO never queues.
func (f *FIFO) Queued() int { return 0 }

// InFlight implements Scheduler.
func (f *FIFO) InFlight() int { return f.inflight }

// Accounting implements Scheduler.
func (f *FIFO) Accounting() *Accounting { return f.acct }

// Submit implements Scheduler.
func (f *FIFO) Submit(req *Request) error {
	if err := req.prepare(f.src); err != nil {
		return reject(req, err)
	}
	req.arrive = f.eng.Now()
	req.cost = f.dev.Cost(req.Class.OpKind(), req.Size)
	req.seq = f.seq
	f.seq++
	f.inflight++
	if f.probe != nil {
		st := ProbeState{Event: ProbeArrive, Time: req.arrive, InFlight: f.inflight}
		f.probe.Observe(req, st)
		st.Event = ProbeDispatch
		f.probe.Observe(req, st)
	}
	f.dev.Submit(req.Class.OpKind(), req.Size, f.doneFn, req)
	return nil
}

func (f *FIFO) complete(arg any, _ float64) {
	req := arg.(*Request)
	f.inflight--
	f.acct.Add(req)
	finish(f.probe, req, ProbeState{Time: f.eng.Now(), InFlight: f.inflight})
}
