package iosched

import (
	"fmt"
	"sort"

	"ibis/internal/sim"
)

// Reservation is the paper's Section 9 "extreme case": a
// non-work-conserving scheduler that partitions the device bandwidth
// hard. Each application is paced at its reserved rate (cost units per
// second) regardless of what everyone else is doing, so isolation is
// strict — an app's service never depends on its neighbours — but
// bandwidth an app leaves unused is simply wasted. IBIS exposes this
// as one end of the fairness-versus-utilization spectrum that SFQ(D)
// and SFQ(D2) trade along.
type Reservation struct {
	eng   *sim.Engine
	dev   Backend
	acct  *Accounting
	probe Probe
	seq   uint64

	// rates maps each app to its reserved service rate (cost units/s);
	// defaultRate applies to apps not listed (0 = reject).
	rates       map[AppID]float64
	defaultRate float64

	flows    map[AppID]*resFlow
	inflight int
	queued   int
}

type resFlow struct {
	rate    float64
	credits float64 // accumulated cost units
	last    float64
	queue   []*Request
	release sim.Event
}

// NewReservation builds the strict-partitioning scheduler. rates gives
// each app's reserved rate in cost units per second; defaultRate
// applies to unlisted apps and must be positive if any such app may
// submit. Rates are validated here — reservation configs arrive from
// the public cluster config, so a bad one is an input error.
func NewReservation(eng *sim.Engine, dev Backend, rates map[AppID]float64, defaultRate float64) (*Reservation, error) {
	for app, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("iosched: reservation rate for %q must be positive, got %g", app, r)
		}
	}
	if defaultRate < 0 {
		return nil, fmt.Errorf("iosched: default reservation rate must be non-negative, got %g", defaultRate)
	}
	return &Reservation{
		eng:         eng,
		dev:         dev,
		acct:        NewAccounting(),
		rates:       rates,
		defaultRate: defaultRate,
		flows:       make(map[AppID]*resFlow),
	}, nil
}

var _ Scheduler = (*Reservation)(nil)

// Name implements Scheduler.
func (r *Reservation) Name() string { return "reservation" }

// Queued implements Scheduler.
func (r *Reservation) Queued() int { return r.queued }

// InFlight implements Scheduler.
func (r *Reservation) InFlight() int { return r.inflight }

// Accounting implements Scheduler.
func (r *Reservation) Accounting() *Accounting { return r.acct }

// SetProbe installs a lifecycle probe (tracing/auditing).
func (r *Reservation) SetProbe(p Probe) { r.probe = p }

// Apps returns the configured apps, sorted (for introspection).
func (r *Reservation) Apps() []AppID {
	out := make([]AppID, 0, len(r.rates))
	for a := range r.rates {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Submit implements Scheduler. A request from an app with no
// reservation and no default rate is rejected with an error — the
// non-work-conserving partitioning has no bandwidth to give it.
func (r *Reservation) Submit(req *Request) error {
	if err := req.prepare(); err != nil {
		return err
	}
	f := r.flows[req.App]
	if f == nil {
		rate, ok := r.rates[req.App]
		if !ok {
			rate = r.defaultRate
		}
		if rate <= 0 {
			return fmt.Errorf("iosched: no reservation for app %q and no default rate", req.App)
		}
		f = &resFlow{rate: rate, last: r.eng.Now()}
		r.flows[req.App] = f
	}
	req.arrive = r.eng.Now()
	req.cost = r.dev.Cost(req.Class.OpKind(), req.Size)
	req.seq = r.seq
	r.seq++
	if r.probe != nil {
		r.probe.Observe(req, ProbeState{
			Event:    ProbeArrive,
			Time:     req.arrive,
			Queued:   r.queued,
			InFlight: r.inflight,
		})
	}

	r.refill(f)
	if len(f.queue) == 0 && f.credits >= req.cost {
		f.credits -= req.cost
		r.dispatch(req)
		return nil
	}
	f.queue = append(f.queue, req)
	r.queued++
	r.armRelease(f)
	return nil
}

func (r *Reservation) refill(f *resFlow) {
	now := r.eng.Now()
	f.credits += (now - f.last) * f.rate
	f.last = now
	// Credits do not accumulate beyond one second plus the head
	// request's cost (no long-horizon bursting), mirroring the
	// token-bucket shaping real reservations use.
	burst := f.rate
	if len(f.queue) > 0 && f.queue[0].cost > burst {
		burst = f.queue[0].cost
	}
	if f.credits > burst {
		f.credits = burst
	}
}

func (r *Reservation) armRelease(f *resFlow) {
	if f.release.Scheduled() || len(f.queue) == 0 {
		return
	}
	need := f.queue[0].cost - f.credits
	delay := 0.0
	if need > 0 {
		delay = need / f.rate
	}
	f.release = r.eng.Schedule(delay, func() {
		f.release = sim.Event{}
		r.refill(f)
		for len(f.queue) > 0 && f.credits >= f.queue[0].cost-creditEps(f.queue[0].cost) {
			req := f.queue[0]
			f.queue = f.queue[1:]
			f.credits -= req.cost
			if f.credits < 0 {
				f.credits = 0
			}
			r.queued--
			r.dispatch(req)
		}
		r.armRelease(f)
	})
}

// creditEps is the release slop guarding against float stagnation.
func creditEps(cost float64) float64 { return 1e-9 + cost*1e-9 }

func (r *Reservation) dispatch(req *Request) {
	r.inflight++
	req.dispatch = r.eng.Now()
	if r.probe != nil {
		r.probe.Observe(req, ProbeState{
			Event:    ProbeDispatch,
			Time:     req.dispatch,
			Queued:   r.queued,
			InFlight: r.inflight,
		})
	}
	r.dev.Submit(req.Class.OpKind(), req.Size, func(float64) {
		r.inflight--
		lat := r.eng.Now() - req.arrive
		r.acct.add(req)
		if r.probe != nil {
			r.probe.Observe(req, ProbeState{
				Event:    ProbeComplete,
				Time:     r.eng.Now(),
				Queued:   r.queued,
				InFlight: r.inflight,
				Latency:  lat,
			})
		}
		if req.OnDone != nil {
			req.OnDone(lat)
		}
	})
}
