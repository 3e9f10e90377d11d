package sim

import (
	"fmt"
	"math"
)

// CapacityFunc maps the number of concurrently serviced jobs to the
// aggregate service rate of a resource, in service units per second.
// It must be positive for every n >= 1.
type CapacityFunc func(n int) float64

// ConstantCapacity returns a CapacityFunc with a fixed aggregate rate
// regardless of concurrency.
func ConstantCapacity(rate float64) CapacityFunc {
	return func(int) float64 { return rate }
}

// DoneFunc is a completion callback: it receives the argument the job
// was submitted with and the job's in-resource latency in seconds.
// Passing a cached method value plus a pointer argument, instead of a
// fresh closure per job, keeps submission allocation-free.
type DoneFunc func(arg any, latency float64)

// psJob is one unit of work in service. Records are owned by their
// PSResource and recycled through its free list once they complete, so
// no caller may hold one; callers identify their work by the argument
// they submit with.
type psJob struct {
	demand  float64 // total service units requested
	finishV float64 // virtual service point at which the job completes
	start   float64 // virtual time service began
	seq     uint64  // submission order, for deterministic tie-breaking
	done    DoneFunc
	arg     any
}

// psEntry is one heap slot: the (finishV, seq) ordering key held inline
// next to its job, so sifting never dereferences a job record.
type psEntry struct {
	finishV float64
	seq     uint64
	job     *psJob
}

// PSResource models a processor-sharing server: all active jobs progress
// simultaneously, each receiving an equal share of the aggregate capacity,
// which may itself depend on the number of active jobs (seek thrashing on
// disks, internal parallelism on SSDs, ...).
//
// Progress is tracked with virtual-service accounting: vserv is the
// cumulative service every continuously-active job has received, and a
// job submitted at vserv = v with demand d completes when vserv reaches
// v + d. Because every active job accrues vserv at the same (possibly
// capacity-curve-dependent) per-job rate, advancing the clock is O(1) —
// one addition to vserv — instead of a rescan of all jobs, and the next
// completion is the minimum finishV in a heap, O(log n) to maintain.
//
// A capacity disturbance factor can be applied (SetDisturbance) to model
// transient slowdowns such as write-back flushes.
type PSResource struct {
	eng         *Engine
	capacity    CapacityFunc
	disturbance float64 // multiplier on capacity, default 1
	heap        []psEntry
	vserv       float64 // cumulative per-job virtual service
	lastUpdate  float64
	nextDone    Event
	name        string
	jobSeq      uint64
	completeFn  func()   // cached completeDue method value (no per-reschedule alloc)
	due         []*psJob // scratch reused by completeDue
	free        []*psJob // completed job records, reused by Submit

	// Cumulative accounting.
	servedUnits float64
	busyTime    float64
	completed   uint64
}

// NewPSResource creates a processor-sharing resource driven by eng.
func NewPSResource(eng *Engine, name string, capacity CapacityFunc) *PSResource {
	if capacity == nil {
		panic("sim: NewPSResource requires a capacity function")
	}
	r := &PSResource{
		eng:         eng,
		capacity:    capacity,
		disturbance: 1,
		lastUpdate:  eng.Now(),
		name:        name,
	}
	r.completeFn = r.completeDue
	return r
}

// Name returns the identifier given at construction.
func (r *PSResource) Name() string { return r.name }

// InFlight returns the number of jobs currently in service.
func (r *PSResource) InFlight() int { return len(r.heap) }

// ServedUnits returns the cumulative service units delivered.
func (r *PSResource) ServedUnits() float64 { return r.servedUnits }

// BusyTime returns the cumulative virtual time during which at least one
// job was in service.
func (r *PSResource) BusyTime() float64 { return r.busyTime }

// Completed returns the number of jobs fully serviced.
func (r *PSResource) Completed() uint64 { return r.completed }

// Rate returns the current aggregate service rate (units/second), i.e.
// capacity at the current concurrency scaled by the disturbance factor.
// Zero when idle.
func (r *PSResource) Rate() float64 {
	n := len(r.heap)
	if n == 0 {
		return 0
	}
	return r.capacity(n) * r.disturbance
}

// SetDisturbance scales the resource capacity by factor (e.g. 0.2 during
// a write-back flush). factor must be > 0.
func (r *PSResource) SetDisturbance(factor float64) {
	if factor <= 0 || math.IsNaN(factor) {
		panic(fmt.Sprintf("sim: invalid disturbance factor %v", factor))
	}
	r.advance()
	r.disturbance = factor
	r.reschedule()
}

// Disturbance returns the current capacity multiplier.
func (r *PSResource) Disturbance() float64 { return r.disturbance }

// Submit begins servicing a job of the given demand (service units).
// done, if non-nil, fires with arg and the job's latency when the job
// completes. Zero- or negative-demand jobs complete immediately (via a
// zero-delay event, preserving causality).
func (r *PSResource) Submit(demand float64, done DoneFunc, arg any) {
	var job *psJob
	if n := len(r.free); n > 0 {
		job = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		job = &psJob{}
	}
	*job = psJob{demand: demand, start: r.eng.Now(), seq: r.jobSeq, done: done, arg: arg}
	r.jobSeq++
	if demand <= 0 {
		r.eng.Schedule(0, func() { r.finish(job) })
		return
	}
	r.advance()
	job.finishV = r.vserv + demand
	r.jobPush(job)
	r.reschedule()
}

// advance applies service progress accumulated since lastUpdate. With
// virtual-service accounting this is a single O(1) update regardless of
// how many jobs are in flight; no per-job state is touched.
func (r *PSResource) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpdate
	r.lastUpdate = now
	n := len(r.heap)
	if dt <= 0 || n == 0 {
		return
	}
	dv := dt * r.capacity(n) * r.disturbance / float64(n)
	r.vserv += dv
	// Completion events are scheduled at the earliest finish, so any
	// per-job overshoot here is numerical noise; completeDue charges the
	// signed remainder back when the job is retired.
	r.servedUnits += dv * float64(n)
	r.busyTime += dt
}

// reschedule recomputes the next completion event: the heap minimum's
// finish point converted to a delay at the current per-job rate.
func (r *PSResource) reschedule() {
	r.eng.Cancel(r.nextDone)
	r.nextDone = Event{}
	n := len(r.heap)
	if n == 0 {
		return
	}
	perJob := r.capacity(n) * r.disturbance / float64(n)
	if perJob <= 0 {
		panic(fmt.Sprintf("sim: resource %q has non-positive rate at n=%d", r.name, n))
	}
	delay := (r.heap[0].finishV - r.vserv) / perJob
	if delay < 0 {
		delay = 0
	}
	r.nextDone = r.eng.Schedule(delay, r.completeFn)
}

// completeDue finishes every job whose remaining service has reached
// (numerically, nearly reached) zero. Due jobs are contiguous at the top
// of the finishV heap; popping stops at the first non-due minimum.
func (r *PSResource) completeDue() {
	r.nextDone = Event{}
	r.advance()
	due := r.due[:0]
	for len(r.heap) > 0 {
		top := r.heap[0].job
		if top.finishV-r.vserv > dueEpsilon(top.demand) {
			break
		}
		r.jobPopMin()
		due = append(due, top)
	}
	// Guard against float stagnation: this event was scheduled because
	// some job was predicted to finish now. If rounding left a sliver of
	// remaining work too small to advance virtual time, force-complete
	// the closest job rather than re-arming a zero-delay event forever.
	if len(due) == 0 && len(r.heap) > 0 {
		n := len(r.heap)
		perJob := r.capacity(n) * r.disturbance / float64(n)
		top := r.heap[0].job
		if t := r.eng.Now(); t+(top.finishV-r.vserv)/perJob == t {
			r.jobPopMin()
			due = append(due, top)
		}
	}
	// Deterministic completion order: by submission sequence.
	sortJobs(due)
	for _, j := range due {
		// Signed epsilon remainder: tops up the last sliver of a job
		// retired slightly early, or refunds overshoot past its finish
		// point, so a completed job is charged exactly its demand.
		r.servedUnits += j.finishV - r.vserv
	}
	r.reschedule()
	for i, j := range due {
		due[i] = nil
		r.finish(j)
	}
	r.due = due[:0]
}

// dueEpsilon is the completion slop for a job: absolute 1e-9 units plus
// one part in 1e12 of the demand, so giant (multi-GB) demands are not
// held hostage to float rounding.
func dueEpsilon(demand float64) float64 {
	return 1e-9 + demand*1e-12
}

// finish retires a job: its record goes back on the free list before
// the callback runs, so a callback that submits again reuses it.
func (r *PSResource) finish(job *psJob) {
	r.completed++
	done, arg, lat := job.done, job.arg, r.eng.Now()-job.start
	*job = psJob{}
	r.free = append(r.free, job)
	if done != nil {
		done(arg, lat)
	}
}

// sortJobs orders jobs deterministically by submission sequence so that
// completion callbacks fire in a reproducible order even when several
// jobs finish in the same instant.
func sortJobs(js []*psJob) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].seq < js[k-1].seq; k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// --- specialized job min-heap, ordered by (finishV, seq) ---

func entryLess(a, b *psEntry) bool {
	if a.finishV != b.finishV {
		return a.finishV < b.finishV
	}
	return a.seq < b.seq
}

func (r *PSResource) jobPush(j *psJob) {
	e := psEntry{finishV: j.finishV, seq: j.seq, job: j}
	h := append(r.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	r.heap = h
}

func (r *PSResource) jobPopMin() {
	h := r.heap
	last := len(h) - 1
	e := h[last]
	h[last] = psEntry{}
	h = h[:last]
	r.heap = h
	if last == 0 {
		return
	}
	// Sift the relocated tail entry down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if rc := child + 1; rc < last && entryLess(&h[rc], &h[child]) {
			child = rc
		}
		if !entryLess(&h[child], &e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}
