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

// PSJob is one unit of work being serviced by a PSResource.
type PSJob struct {
	res      *PSResource
	demand   float64 // total service units requested
	finishV  float64 // virtual service point at which the job completes
	residual float64 // remaining units frozen at deactivation
	start    float64 // virtual time service began
	seq      uint64  // submission order, for deterministic tie-breaking
	index    int32   // position in PSResource.heap, -1 when not queued
	onDone   func()
	active   bool
	// Payload lets callers attach arbitrary context to a job.
	Payload any
}

// Remaining returns the service units still owed to the job. Progress is
// only applied at events; callers that need an exact instantaneous value
// should call PSResource.Sync first.
func (j *PSJob) Remaining() float64 {
	if !j.active {
		return j.residual
	}
	if rem := j.finishV - j.res.vserv; rem > 0 {
		return rem
	}
	return 0
}

// Start returns the virtual time at which service of the job began.
func (j *PSJob) Start() float64 { return j.start }

// Active reports whether the job is still in service.
func (j *PSJob) Active() bool { return j.active }

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
	heap        []*PSJob
	vserv       float64 // cumulative per-job virtual service
	lastUpdate  float64
	nextDone    Event
	name        string
	jobSeq      uint64
	completeFn  func()   // cached completeDue method value (no per-reschedule alloc)
	due         []*PSJob // scratch reused by completeDue

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
// onDone fires when the job completes. Zero- or negative-demand jobs
// complete immediately (via a zero-delay event, preserving causality).
func (r *PSResource) Submit(demand float64, onDone func()) *PSJob {
	job := &PSJob{
		res:    r,
		demand: demand,
		start:  r.eng.Now(),
		seq:    r.jobSeq,
		index:  -1,
		onDone: onDone,
		active: true,
	}
	r.jobSeq++
	if demand <= 0 {
		job.finishV = r.vserv
		r.eng.Schedule(0, func() { r.finish(job) })
		return job
	}
	r.advance()
	job.finishV = r.vserv + demand
	r.jobPush(job)
	r.reschedule()
	return job
}

// Abort removes a job from service without running its completion
// callback. Aborting an inactive job is a no-op.
func (r *PSResource) Abort(job *PSJob) {
	if job == nil || !job.active {
		return
	}
	r.advance()
	job.active = false
	if rem := job.finishV - r.vserv; rem > 0 {
		job.residual = rem
	}
	if job.index >= 0 {
		r.jobRemove(int(job.index))
	}
	r.reschedule()
}

// Sync advances internal progress accounting to the current virtual time
// without changing the job set. Useful before inspecting Remaining.
func (r *PSResource) Sync() {
	r.advance()
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
		top := r.heap[0]
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
		top := r.heap[0]
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
	for _, j := range due {
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

func (r *PSResource) finish(job *PSJob) {
	if !job.active {
		return
	}
	job.active = false
	job.residual = 0
	r.completed++
	if job.onDone != nil {
		job.onDone()
	}
}

// sortJobs orders jobs deterministically by submission sequence so that
// completion callbacks fire in a reproducible order even when several
// jobs finish in the same instant.
func sortJobs(js []*PSJob) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].seq < js[k-1].seq; k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// --- specialized job min-heap, ordered by (finishV, seq) ---

func jobLess(a, b *PSJob) bool {
	if a.finishV != b.finishV {
		return a.finishV < b.finishV
	}
	return a.seq < b.seq
}

func (r *PSResource) jobPush(j *PSJob) {
	j.index = int32(len(r.heap))
	r.heap = append(r.heap, j)
	r.jobSiftUp(len(r.heap) - 1)
}

func (r *PSResource) jobPopMin() *PSJob {
	h := r.heap
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	r.heap = h[:last]
	if last > 0 {
		h[0].index = 0
		r.jobSiftDown(0)
	}
	min.index = -1
	return min
}

func (r *PSResource) jobRemove(i int) {
	h := r.heap
	last := len(h) - 1
	j := h[i]
	if i != last {
		h[i] = h[last]
		h[i].index = int32(i)
	}
	h[last] = nil
	r.heap = h[:last]
	if i < last {
		if !r.jobSiftDown(i) {
			r.jobSiftUp(i)
		}
	}
	j.index = -1
}

func (r *PSResource) jobSiftUp(i int) {
	h := r.heap
	j := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !jobLess(j, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = j
	j.index = int32(i)
}

func (r *PSResource) jobSiftDown(i int) bool {
	h := r.heap
	n := len(h)
	j := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if rc := child + 1; rc < n && jobLess(h[rc], h[child]) {
			child = rc
		}
		if !jobLess(h[child], j) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = j
	j.index = int32(i)
	return i > start
}
