package iosched

import (
	"fmt"
	"math"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Pacer is a non-work-conserving token-bucket scheduler: each paced
// application is released at its own rate regardless of what everyone
// else is doing, so a paced app waits even while the device idles. Its
// two constructors build the two pacing policies the paper compares:
//
//   - NewReservation is the paper's Section 9 "extreme case", a hard
//     partition of the device. Every app is paced in device cost units,
//     so isolation is strict — an app's service never depends on its
//     neighbours — but bandwidth an app leaves unused is wasted. IBIS
//     exposes this as one end of the fairness-versus-utilization
//     spectrum that SFQ(D) and SFQ(D2) trade along.
//   - NewThrottle is the blkio.throttle.*_bps_device cap: capped apps
//     are paced in bytes, and uncapped apps and all writes dispatch at
//     once.
//
// Within an app requests leave in arrival order.
type Pacer struct {
	eng   *sim.Engine
	dev   Backend
	src   WeightSource
	acct  *Accounting
	probe Probe
	name  string
	seq   uint64

	// rates maps each app to its pacing rate (tokens/s); defaultRate
	// applies to apps not listed.
	rates       map[AppID]float64
	defaultRate float64
	// blkio selects the throttle's rules: tokens are bytes, and an app
	// without a rate, like every write, dispatches at once (blkio v1
	// cannot attribute write-back I/O to the issuing cgroup). Otherwise
	// tokens are device cost units and an app without a rate is
	// rejected.
	blkio bool

	flows    map[AppIdx]*paceFlow
	inflight int
	queued   int
	doneFn   sim.DoneFunc // cached complete method value
}

// paceFlow is one app's token bucket and its FIFO of waiting requests.
type paceFlow struct {
	rate    float64
	tokens  float64
	last    float64
	queue   []*Request
	release sim.Event
}

// NewReservation builds the strict-partitioning scheduler, whose
// requests' apps src numbers and weighs. rates gives each app's
// reserved rate in cost units per second; defaultRate applies to
// unlisted apps and must be positive if any such app may submit. Rates are validated here — reservation configs arrive from
// the public cluster config, so a bad one is an input error.
func NewReservation(eng *sim.Engine, dev Backend, src WeightSource, rates map[AppID]float64, defaultRate float64) (*Pacer, error) {
	if defaultRate != 0 && !validRate(defaultRate) {
		return nil, fmt.Errorf("iosched: default reservation rate must be non-negative and finite, got %g", defaultRate)
	}
	return newPacer(eng, dev, src, "reservation", rates, defaultRate, false)
}

// NewThrottle builds the cgroups blkio.throttle baseline over src's
// apps. caps maps each capped app to its read bandwidth in
// bytes/second; apps absent from the map are uncapped, and writes are
// never paced.
func NewThrottle(eng *sim.Engine, dev Backend, src WeightSource, caps map[AppID]float64) (*Pacer, error) {
	return newPacer(eng, dev, src, "cgroups-throttle", caps, 0, true)
}

func newPacer(eng *sim.Engine, dev Backend, src WeightSource, name string, rates map[AppID]float64, defaultRate float64, blkio bool) (*Pacer, error) {
	for app, r := range rates {
		if !validRate(r) {
			return nil, fmt.Errorf("iosched: %s rate for %q must be positive and finite, got %g", name, app, r)
		}
	}
	p := &Pacer{
		eng:         eng,
		dev:         dev,
		src:         src,
		acct:        NewAccounting(src),
		name:        name,
		rates:       rates,
		defaultRate: defaultRate,
		blkio:       blkio,
		flows:       make(map[AppIdx]*paceFlow),
	}
	p.doneFn = p.complete
	return p, nil
}

func validRate(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

var _ Scheduler = (*Pacer)(nil)

// Name implements Scheduler.
func (p *Pacer) Name() string { return p.name }

// Queued implements Scheduler.
func (p *Pacer) Queued() int { return p.queued }

// InFlight implements Scheduler.
func (p *Pacer) InFlight() int { return p.inflight }

// Accounting implements Scheduler.
func (p *Pacer) Accounting() *Accounting { return p.acct }

// SetProbe installs a lifecycle probe (tracing/auditing).
func (p *Pacer) SetProbe(pr Probe) { p.probe = pr }

// Submit implements Scheduler. A reservation rejects a request from an
// app with no reservation and no default rate with an error — the
// non-work-conserving partitioning has no bandwidth to give it.
func (p *Pacer) Submit(req *Request) error {
	if err := req.prepare(p.src); err != nil {
		return reject(req, err)
	}
	f, err := p.flow(req)
	if err != nil {
		return reject(req, err)
	}
	req.arrive = p.eng.Now()
	req.cost = p.dev.Cost(req.Class.OpKind(), req.Size)
	req.seq = p.seq
	p.seq++
	if p.probe != nil {
		p.probe.Observe(req, ProbeState{
			Event:    ProbeArrive,
			Time:     req.arrive,
			Queued:   p.queued,
			InFlight: p.inflight,
		})
	}
	if f == nil {
		p.dispatch(req)
		return nil
	}
	p.refill(f)
	if c := p.charge(req); len(f.queue) == 0 && f.tokens >= c {
		f.tokens -= c
		p.dispatch(req)
		return nil
	}
	f.queue = append(f.queue, req)
	p.queued++
	p.armRelease(f)
	return nil
}

// flow returns the bucket that paces req, or nil if req dispatches at
// once.
func (p *Pacer) flow(req *Request) (*paceFlow, error) {
	if p.blkio && req.Class.OpKind() == storage.Write {
		return nil, nil
	}
	if f := p.flows[req.AppIdx]; f != nil {
		return f, nil
	}
	app := p.src.AppName(req.AppIdx)
	rate, ok := p.rates[app]
	if !ok {
		rate = p.defaultRate
	}
	if rate <= 0 {
		if p.blkio {
			return nil, nil
		}
		return nil, fmt.Errorf("iosched: no reservation for app %q and no default rate", app)
	}
	f := &paceFlow{rate: rate, last: p.eng.Now()}
	p.flows[req.AppIdx] = f
	return f, nil
}

// charge is the number of tokens req takes from its bucket.
func (p *Pacer) charge(req *Request) float64 {
	if p.blkio {
		return req.Size
	}
	return req.cost
}

func (p *Pacer) refill(f *paceFlow) {
	now := p.eng.Now()
	f.tokens += (now - f.last) * f.rate
	f.last = now
	// Tokens do not accumulate beyond one second's worth (no
	// long-horizon bursting), mirroring the token-bucket shaping real
	// reservations and blkio use — but never below the head request's
	// charge, or a request larger than one second's budget could never
	// be released.
	burst := f.rate
	if len(f.queue) > 0 {
		burst = math.Max(burst, p.charge(f.queue[0]))
	}
	if f.tokens > burst {
		f.tokens = burst
	}
}

// armRelease schedules the flow's next token-driven release.
func (p *Pacer) armRelease(f *paceFlow) {
	if f.release.Scheduled() || len(f.queue) == 0 {
		return
	}
	delay := 0.0
	if need := p.charge(f.queue[0]) - f.tokens; need > 0 {
		delay = need / f.rate
	}
	f.release = p.eng.Schedule(delay, func() {
		f.release = sim.Event{}
		p.refill(f)
		for len(f.queue) > 0 {
			// Release within a small epsilon of the charge so float
			// rounding in the refill arithmetic cannot stall the
			// queue forever.
			c := p.charge(f.queue[0])
			if f.tokens < c-(1e-9+c*1e-9) {
				break
			}
			req := f.queue[0]
			f.queue[0] = nil
			f.queue = f.queue[1:]
			f.tokens -= c
			if f.tokens < 0 {
				f.tokens = 0
			}
			p.queued--
			p.dispatch(req)
		}
		p.armRelease(f)
	})
}

func (p *Pacer) dispatch(req *Request) {
	p.inflight++
	if p.probe != nil {
		p.probe.Observe(req, ProbeState{
			Event:    ProbeDispatch,
			Time:     p.eng.Now(),
			Queued:   p.queued,
			InFlight: p.inflight,
		})
	}
	p.dev.Submit(req.Class.OpKind(), req.Size, p.doneFn, req)
}

func (p *Pacer) complete(arg any, _ float64) {
	req := arg.(*Request)
	p.inflight--
	p.acct.Add(req)
	finish(p.probe, req, ProbeState{Time: p.eng.Now(), Queued: p.queued, InFlight: p.inflight})
}
