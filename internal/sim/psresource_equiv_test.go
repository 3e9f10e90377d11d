package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refPS is a reference port of the pre-virtual-service PSResource: it
// keeps an explicit remaining counter per job and rescans the whole job
// set on every event (O(n) advance). The only change from the original
// is that jobs live in a slice in submission order instead of a map, so
// float accumulation order — and hence rounding — is deterministic.
// The equivalence property test replays randomized workloads against
// both implementations and requires identical completion order and
// completion times within a rounding tolerance.
type refJob struct {
	remaining float64
	demand    float64
	seq       uint64
	onDone    func()
}

type refPS struct {
	eng         *Engine
	capacity    CapacityFunc
	disturbance float64
	jobs        []*refJob // submission order
	lastUpdate  float64
	nextDone    Event
	jobSeq      uint64
}

func newRefPS(eng *Engine, capacity CapacityFunc) *refPS {
	return &refPS{eng: eng, capacity: capacity, disturbance: 1, lastUpdate: eng.Now()}
}

func (r *refPS) Submit(demand float64, onDone func()) {
	job := &refJob{remaining: demand, demand: demand, seq: r.jobSeq, onDone: onDone}
	r.jobSeq++
	if demand <= 0 {
		job.remaining = 0
		r.eng.Schedule(0, func() { r.finish(job) })
		return
	}
	r.advance()
	r.jobs = append(r.jobs, job)
	r.reschedule()
}

func (r *refPS) SetDisturbance(factor float64) {
	r.advance()
	r.disturbance = factor
	r.reschedule()
}

func (r *refPS) remove(job *refJob) {
	for i, j := range r.jobs {
		if j == job {
			r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
			return
		}
	}
}

func (r *refPS) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpdate
	r.lastUpdate = now
	n := len(r.jobs)
	if dt <= 0 || n == 0 {
		return
	}
	perJob := r.capacity(n) * r.disturbance / float64(n)
	done := dt * perJob
	for _, j := range r.jobs {
		dec := done
		if j.remaining < dec {
			dec = j.remaining
		}
		j.remaining -= dec
	}
}

func (r *refPS) reschedule() {
	r.eng.Cancel(r.nextDone)
	r.nextDone = Event{}
	n := len(r.jobs)
	if n == 0 {
		return
	}
	perJob := r.capacity(n) * r.disturbance / float64(n)
	minRemaining := math.Inf(1)
	for _, j := range r.jobs {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	r.nextDone = r.eng.Schedule(minRemaining/perJob, r.completeDue)
}

func (r *refPS) completeDue() {
	r.nextDone = Event{}
	r.advance()
	var due []*refJob
	var minJob *refJob
	for _, j := range r.jobs {
		if j.remaining <= dueEpsilon(j.demand) {
			due = append(due, j)
		}
		if minJob == nil || j.remaining < minJob.remaining ||
			(j.remaining == minJob.remaining && j.seq < minJob.seq) {
			minJob = j
		}
	}
	if len(due) == 0 && minJob != nil {
		n := len(r.jobs)
		perJob := r.capacity(n) * r.disturbance / float64(n)
		if t := r.eng.Now(); t+minJob.remaining/perJob == t {
			due = append(due, minJob)
		}
	}
	for _, j := range due {
		r.remove(j)
		j.remaining = 0
	}
	r.reschedule()
	for _, j := range due {
		r.finish(j)
	}
}

func (r *refPS) finish(job *refJob) {
	if job.onDone != nil {
		job.onDone()
	}
}

// psOp is one scripted action in a replayed workload.
type psOp struct {
	at          float64
	kind        int // 0 = submit, 1 = disturbance
	demand      float64
	disturbance float64
}

type psCompletion struct {
	id int
	at float64
}

// genOps builds a randomized but deterministic workload script.
func genOps(rng *rand.Rand, n int) []psOp {
	ops := make([]psOp, 0, n)
	submits := 0
	for i := 0; i < n; i++ {
		at := rng.Float64() * 20
		if k := rng.Intn(10); k < 9 || submits == 0 {
			ops = append(ops, psOp{at: at, kind: 0, demand: 0.5 + rng.Float64()*400})
			submits++
		} else {
			ops = append(ops, psOp{at: at, kind: 1, disturbance: 0.2 + rng.Float64()*1.6})
		}
	}
	return ops
}

// replayNew runs the script against the production PSResource.
func replayNew(ops []psOp, capacity CapacityFunc) []psCompletion {
	e := NewEngine()
	r := NewPSResource(e, "disk", capacity)
	var out []psCompletion
	id := 0
	for _, op := range ops {
		op := op
		switch op.kind {
		case 0:
			myID := id
			id++
			e.Schedule(op.at, func() {
				r.Submit(op.demand, func(any, float64) {
					out = append(out, psCompletion{id: myID, at: e.Now()})
				}, nil)
			})
		case 1:
			e.Schedule(op.at, func() { r.SetDisturbance(op.disturbance) })
		}
	}
	e.Run()
	return out
}

// replayRef runs the same script against the reference model.
func replayRef(ops []psOp, capacity CapacityFunc) []psCompletion {
	e := NewEngine()
	r := newRefPS(e, capacity)
	var out []psCompletion
	id := 0
	for _, op := range ops {
		op := op
		switch op.kind {
		case 0:
			myID := id
			id++
			e.Schedule(op.at, func() {
				r.Submit(op.demand, func() {
					out = append(out, psCompletion{id: myID, at: e.Now()})
				})
			})
		case 1:
			e.Schedule(op.at, func() { r.SetDisturbance(op.disturbance) })
		}
	}
	e.Run()
	return out
}

// TestPSEquivalenceWithReferenceModel replays randomized
// submit/disturbance scripts against the virtual-service
// PSResource and the O(n)-rescan reference semantics. Completion order
// must match exactly and completion times within float-rounding slop —
// the heap rewrite must not change observable scheduling behavior.
func TestPSEquivalenceWithReferenceModel(t *testing.T) {
	curves := map[string]CapacityFunc{
		"constant": ConstantCapacity(100),
		"hdd-thrash": func(n int) float64 {
			if n > 4 {
				return 70
			}
			return 100
		},
		"ssd-scaling": func(n int) float64 {
			if n > 8 {
				return 400
			}
			return 100 * float64(n) / 2
		},
	}
	for name, curve := range curves {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := genOps(rng, 40)
			got := replayNew(ops, curve)
			want := replayRef(ops, curve)
			if len(got) != len(want) {
				t.Fatalf("%s/seed %d: %d completions, reference saw %d", name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i].id != want[i].id {
					t.Fatalf("%s/seed %d: completion %d is job %d, reference job %d",
						name, seed, i, got[i].id, want[i].id)
				}
				// Rounding tolerance: both models schedule the same ideal
				// completion instants but accumulate float error
				// differently (signed virtual-service total vs repeated
				// per-job subtraction).
				tol := 1e-6 * (1 + math.Abs(want[i].at))
				if math.Abs(got[i].at-want[i].at) > tol {
					t.Fatalf("%s/seed %d: job %d completes at %.12g, reference %.12g (Δ=%g)",
						name, seed, got[i].id, got[i].at, want[i].at, got[i].at-want[i].at)
				}
			}
		}
	}
}
