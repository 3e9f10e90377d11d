package mapreduce

import (
	"math/rand"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
)

// taskState tracks a task through its lifecycle.
type taskState int

const (
	taskPending taskState = iota
	taskRunning
	taskDone
)

// mapTask reads one input split (or generates data), spills intermediate
// output to the local file system, and optionally writes direct output
// to the DFS (map-only jobs). Its execution is a mapRun (sharded.go).
type mapTask struct {
	job   *Job
	index int
	// block is the input split; nil for generator jobs.
	block *dfs.Block
	// genOutBytes / genInterBytes size a generator map's work.
	genOutBytes   float64
	genInterBytes float64

	node  *cluster.Node
	state taskState
	// attempt invalidates in-flight callbacks of a preempted attempt:
	// completions of any other attempt are dropped.
	attempt int
	// srun is the node-shard execution of the current attempt; nil
	// between attempts.
	srun *mapRun
}

// inputBytes returns the split size this map consumes.
func (m *mapTask) inputBytes() float64 {
	if m.block != nil {
		return m.block.Size
	}
	return m.genOutBytes + m.genInterBytes
}

// interBytes returns the intermediate output this map produces.
func (m *mapTask) interBytes() float64 {
	if m.block == nil {
		return m.genInterBytes
	}
	if m.job.Spec.InputBytes <= 0 {
		return 0
	}
	return m.job.Spec.MapOutputBytes * (m.block.Size / m.job.Spec.InputBytes)
}

// directOutBytes returns DFS output written by this map directly.
func (m *mapTask) directOutBytes() float64 {
	if m.block == nil {
		return m.genOutBytes
	}
	if m.job.Spec.InputBytes <= 0 {
		return 0
	}
	return m.job.Spec.DirectOutputBytes * (m.block.Size / m.job.Spec.InputBytes)
}

// localOn reports whether the map's input has a replica on node n.
func (m *mapTask) localOn(n *cluster.Node) bool {
	if m.block == nil {
		return true // generators have no input affinity
	}
	return m.block.HasReplicaOn(n.Index)
}

func (m *mapTask) finish() {
	m.state = taskDone
	job := m.job
	job.rt.fair.release(m.node, job, job.Spec.MapMemGB)
	job.noteMapDone(m)
	job.rt.fair.pump()
}

// preempt kills a running map attempt: the slot is released and the task
// requeued from scratch, Fair Scheduler preemption semantics.
func (m *mapTask) preempt() {
	if m.state != taskRunning {
		return
	}
	m.cancelRun()
	job := m.job
	job.rt.fair.release(m.node, job, job.Spec.MapMemGB)
	m.attempt++
	m.state = taskPending
	m.node = nil
}

// segment is one map's partition of shuffle data destined for a reduce.
type segment struct {
	srcNode *cluster.Node
	bytes   float64
}

// reduceTask shuffles its partition from every map output, spills it
// locally, merges, computes, and writes replicated DFS output. Its
// execution is a reduceRun (sharded.go); the task itself holds only the
// coordinator's view.
type reduceTask struct {
	job   *Job
	index int
	node  *cluster.Node
	state taskState

	// pending and segsDone are the shuffle backlog accumulated while the
	// reduce waits for a slot; run hands them to the attempt.
	pending  []segment
	segsDone int
	// attempt invalidates in-flight callbacks when the reduce restarts
	// after a node failure.
	attempt int
	// rng picks fetch order: each reduce pulls its backlog in a
	// different order (as Hadoop's shuffle does) so that parallel
	// reduces don't convoy on one source disk. One stream per reduce,
	// kept across attempts.
	rng *rand.Rand
	// rrun is the node-shard execution of the current attempt; nil
	// between attempts.
	rrun *reduceRun
}

// addSegment delivers one map output partition. A running attempt owns
// its shuffle state on its node's shard, so the segment is forwarded
// there as a message; while the reduce waits for a slot the coordinator
// accumulates the backlog, which run hands to the next attempt.
func (r *reduceTask) addSegment(seg segment) {
	if r.state == taskRunning {
		run := r.rrun
		r.job.rt.toNode(run.node, func() { run.addSegment(seg) })
		return
	}
	// A restarted reduce waiting for a slot ignores pushes: it rebuilds
	// its whole queue from the surviving map outputs when it launches
	// (reseedSegments), so accepting pushes here would double-count.
	if r.attempt > 0 && r.state == taskPending {
		return
	}
	if seg.bytes <= 0 {
		r.segsDone++ // trivially fetched
		return
	}
	r.pending = append(r.pending, seg)
}

// inMemoryShuffle reports whether this reduce's whole partition fits in
// the in-memory shuffle buffer (no spill write, no merge read-back).
func (r *reduceTask) inMemoryShuffle() bool {
	n := r.job.Spec.NumReduces
	if n <= 0 {
		return true
	}
	expected := r.job.Spec.MapOutputBytes / float64(n)
	return expected <= r.job.rt.cfg.ShuffleBufferBytes
}

// expectedSegments returns how many map partitions this reduce must
// collect: one per map when the job shuffles at all, none otherwise.
func (r *reduceTask) expectedSegments() int {
	if r.job.Spec.MapOutputBytes <= 0 {
		return 0
	}
	return len(r.job.maps)
}

func (r *reduceTask) finish() {
	r.state = taskDone
	job := r.job
	job.rt.fair.releaseReduce(r.node, job, job.Spec.ReduceMemGB)
	job.noteReduceDone()
	job.rt.fair.pump()
}

// pickReplica returns a surviving replica node for the map's block,
// rotating by task index to spread remote-read load, or nil when every
// replica is gone (unrecoverable data loss).
func (m *mapTask) pickReplica(rt *Runtime) *cluster.Node {
	reps := m.block.Replicas
	for k := 0; k < len(reps); k++ {
		cand := rt.cluster.Nodes[reps[(m.index+k)%len(reps)]]
		if !cand.Dead {
			return cand
		}
	}
	return nil
}
