package mapreduce

// Node-local task execution: the runtime's one task path. The
// coordinator keeps only the per-job barriers.
//
// A launched task attempt becomes a run struct (mapRun / reduceRun)
// posted to the shard of the node executing it. The whole data path —
// input reads, compute interleave, spill writes, shuffle fetches,
// merge, replicated output — executes on that node's engine: local
// device submits are direct calls, remote reads and replica writes hop
// node to node, and shuffle segments stream source→destination. The
// coordinator sees exactly three kinds of task messages: launch
// (coordinator→node), completion (node→coordinator, guarded by the
// attempt token against stale attempts), and the all-maps-done marker
// that closes reduce shuffles. Slot accounting, fair-share pumping,
// preemption and job completion stay coordinator-side, folding those
// completions.
//
// The same pipeline runs on both simulation models. On a single-engine
// cluster every node shares the coordinator's one shard, so each post
// above is a direct call and the pipeline unfolds as an inline state
// machine would, event for event. On the fabric each post is a
// timestamped message paying the lookahead.
//
// Cancellation is message-based for determinism: preempt/restart on
// the coordinator bumps the attempt token immediately (so stale
// completions drop on arrival) and posts a cancel to the run, which
// flips its node-local cancelled flag; continuations on the run's
// shard check it. There are no cross-shard reads of mutable state in
// either direction — the run snapshots what it needs at launch, and
// everything else it touches (specs, blocks, share handles) is
// immutable for the attempt's lifetime. The guards sit where the
// paper-figure calibration put them: a cancelled attempt still drains
// its in-flight output window (DESIGN.md §6), and a shuffle chunk is
// checked once, at its first continuation on the reduce's shard.
//
// Input placement fans out over the namenode's partitions
// (placeInput): each partition draws its blocks' replica sets on its
// metadata shard — the coordinator's shard when the cluster has none —
// and the coordinator publishes the file once every owner has
// answered. Output placement needs no messages at all: PlaceOutput is
// keyed by the attempt's identity, a pure function on a partitioned
// namenode, so the writing node's shard computes its replica set
// locally.

import (
	"math/rand"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// toNode posts fn to node n's shard. Coordinator context only.
func (rt *Runtime) toNode(n *cluster.Node, fn func()) {
	rt.coordShard.Post(n.Shard().ID(), 0, fn)
}

// toCoord posts fn from node n's shard to the coordinator.
func (rt *Runtime) toCoord(n *cluster.Node, fn func()) {
	n.Shard().Post(rt.coordShard.ID(), 0, fn)
}

// outputKey identifies one task attempt's DFS output for keyed
// placement: (job, kind, task, attempt) — unique per attempt, so the
// placement is deterministic no matter when or where it is computed.
func outputKey(jobSeq int, kind uint64, index, attempt int) uint64 {
	return uint64(jobSeq)<<32 | kind<<28 | uint64(index)<<8 | uint64(attempt)&0xff
}

const (
	keyKindMap    = 1
	keyKindReduce = 2
)

// placeInput materializes a job's input file across the namenode's
// partitions: each partition draws the placements for the blocks it
// owns on its own shard, and the coordinator publishes the file once
// every owner has answered, then builds the job's tasks. Because each
// partition sees its blocks in index order, the layout is exactly the
// one dfs.Namenode.Create would produce. On a single engine every hop
// is a direct call, so the file exists when placeInput returns. size
// must be positive, so at least one partition answers.
func (rt *Runtime) placeInput(job *Job, name string, size float64) {
	nn := rt.nn
	sizes := nn.Shape(size)
	owned := make([][]int, nn.Partitions()) // block indices per partition, ascending
	for i := range sizes {
		p := nn.Owner(name, i)
		owned[p] = append(owned[p], i)
	}
	replicas := make([][]int, len(sizes))
	remaining := 0
	for _, idxs := range owned {
		if len(idxs) > 0 {
			remaining++
		}
	}
	publish := func() {
		f, err := nn.Publish(name, sizes, replicas)
		if err != nil {
			// The name was taken behind the runtime's back: the job has
			// no input to read.
			job.fail()
			return
		}
		rt.materialize(job, f)
	}
	coordID := rt.coordShard.ID()
	for p, idxs := range owned {
		if len(idxs) == 0 {
			continue
		}
		ms := rt.coordShard
		if len(rt.metaShards) > 0 {
			ms = rt.metaShards[p%len(rt.metaShards)]
		}
		rt.coordShard.Post(ms.ID(), 0, func() {
			sets := nn.PlacePartition(p, len(idxs))
			ms.Post(coordID, 0, func() {
				for k, i := range idxs {
					replicas[i] = sets[k]
				}
				if remaining--; remaining == 0 {
					publish()
				}
			})
		})
	}
}

// submit issues one tagged request for job on node n; the caller runs
// on n's shard and done fires there. The weight resolves through the
// cluster's share tree at tag time — the job only carries its index. A rejected request (the spec was validated at submission,
// so this indicates control-plane misuse, e.g. the job's tree node was
// removed mid-run) fails the job through the coordinator rather than
// wedging it waiting for a completion that will never come.
func (rt *Runtime) submit(job *Job, n *cluster.Node, class iosched.Class, size float64, done func()) {
	if err := n.IO(job.idx, class, size, done); err != nil {
		rt.toCoord(n, job.fail)
	}
}

// send ships size bytes of job's data from src to dst; the caller runs
// on src's shard and done fires on dst's. A transfer the NIC scheduler
// rejects fails the job like a rejected submit.
func (rt *Runtime) send(job *Job, src, dst *cluster.Node, size float64, done func()) {
	if err := src.SendTagged(dst, job.idx, size, done); err != nil {
		rt.toCoord(src, job.fail)
	}
}

// mapRun is one map attempt executing on its node's shard.
type mapRun struct {
	rt        *Runtime
	m         *mapTask
	job       *Job
	att       int
	node      *cluster.Node
	eng       *sim.Engine
	cancelled bool
}

// alive guards a node-side continuation against a cancelled attempt.
func (mr *mapRun) alive(fn func()) func() {
	return func() {
		if !mr.cancelled {
			fn()
		}
	}
}

// run launches the attempt: build the run on the coordinator, post it
// to the owning node's shard.
func (m *mapTask) run() {
	rt := m.job.rt
	run := &mapRun{
		rt:   rt,
		m:    m,
		job:  m.job,
		att:  m.attempt,
		node: m.node,
		eng:  m.node.Shard().Engine(),
	}
	m.srun = run
	rt.toNode(run.node, run.start)
}

// complete folds a node-side completion on the coordinator, dropping
// reports from stale attempts.
func (m *mapTask) complete(att int) {
	if m.attempt != att || m.state != taskRunning {
		return
	}
	m.srun = nil
	m.finish()
}

// start runs the map's three phases on the node shard. The phases are
// sequential within the task; concurrency comes from many tasks.
func (mr *mapRun) start() {
	m, rt := mr.m, mr.rt
	alive := mr.alive
	mr.consumeInput(alive(func() {
		// Phase 2: spill intermediate output locally (write-behind).
		windowed(mr.eng, rt.cfg.ChunkBytes, m.interBytes(), rt.cfg.WriteAheadChunks, func(c float64, next func()) {
			rt.submit(mr.job, mr.node, iosched.IntermediateWrite, c, alive(next))
		}, alive(func() {
			// Phase 3: direct DFS output (map-only jobs), replicated.
			key := outputKey(mr.job.seq, keyKindMap, m.index, mr.att)
			rt.writeReplicated(mr.job, mr.node, mr.eng, m.directOutBytes(), key, alive(func() {
				rt.toCoord(mr.node, func() { m.complete(mr.att) })
			}))
		}))
	}))
}

// consumeInput is phase 1: alternate chunk reads with computation.
// Generator maps only burn CPU here. Remote chunks hop to the replica's
// shard for the read and stream back node-to-node.
func (mr *mapRun) consumeInput(done func()) {
	m, rt := mr.m, mr.rt
	cpuPerByte := mr.job.Spec.MapCPUSecPerMB / 1e6
	if m.block == nil {
		mr.eng.Schedule(m.inputBytes()*cpuPerByte, done)
		return
	}
	alive := mr.alive
	local := m.block.HasReplicaOn(mr.node.Index)
	chunked(mr.eng, rt.cfg.ChunkBytes, m.block.Size, func(c float64, next func()) {
		afterRead := alive(func() {
			mr.eng.Schedule(c*cpuPerByte, alive(next))
		})
		if local {
			rt.submit(mr.job, mr.node, iosched.PersistentRead, c, afterRead)
			return
		}
		// Remote read: serviced by a surviving replica node's HDFS
		// scheduler, then shipped over the network. A block with no
		// surviving replica fails the whole job.
		src := m.pickReplica(rt)
		if src == nil {
			rt.toCoord(mr.node, func() {
				if m.attempt == mr.att && m.state == taskRunning {
					m.preempt()
					m.job.fail()
				}
			})
			return
		}
		mr.node.Shard().Post(src.Shard().ID(), 0, func() {
			rt.submit(mr.job, src, iosched.PersistentRead, c, func() {
				rt.send(mr.job, src, mr.node, c, afterRead)
			})
		})
	}, done)
}

// reduceRun is one reduce attempt executing on its node's shard. It
// owns the shuffle state for the attempt: the coordinator forwards
// segments and the all-maps-done marker as messages and otherwise
// stays out of the data path.
type reduceRun struct {
	rt             *Runtime
	r              *reduceTask
	job            *Job
	att            int
	node           *cluster.Node
	eng            *sim.Engine
	pending        []segment
	activeFetchers int
	segsDone       int
	expected       int
	fetchedBytes   float64
	allMapsDone    bool
	finishing      bool
	cancelled      bool
	inMem          bool
}

func (rr *reduceRun) alive(fn func()) func() {
	return func() {
		if !rr.cancelled {
			fn()
		}
	}
}

// run launches the attempt, handing it the shuffle backlog accumulated
// on the coordinator. A restarted attempt first rebuilds that backlog
// from the surviving completed map outputs.
func (r *reduceTask) run() {
	rt := r.job.rt
	if r.attempt > 0 {
		r.reseedSegments()
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(int64(r.job.seq)*1009 + int64(r.index)))
	}
	run := &reduceRun{
		rt:          rt,
		r:           r,
		job:         r.job,
		att:         r.attempt,
		node:        r.node,
		eng:         r.node.Shard().Engine(),
		pending:     r.pending,
		segsDone:    r.segsDone,
		expected:    r.expectedSegments(),
		allMapsDone: r.job.mapsDone == len(r.job.maps),
		inMem:       r.inMemoryShuffle(),
	}
	r.rrun = run
	r.pending, r.segsDone = nil, 0
	rt.toNode(run.node, run.start)
}

func (r *reduceTask) complete(att int) {
	if r.attempt != att || r.state != taskRunning {
		return
	}
	r.rrun = nil
	r.finish()
}

func (rr *reduceRun) start() {
	rr.pumpFetchers()
	rr.maybeFinishShuffle()
}

// addSegment receives one map output partition forwarded by the
// coordinator.
func (rr *reduceRun) addSegment(seg segment) {
	if rr.cancelled {
		return
	}
	if seg.bytes <= 0 {
		rr.segsDone++ // trivially fetched
		rr.maybeFinishShuffle()
		return
	}
	rr.pending = append(rr.pending, seg)
	rr.pumpFetchers()
}

// markAllMapsDone is the coordinator's shuffle-barrier marker.
func (rr *reduceRun) markAllMapsDone() {
	if rr.cancelled {
		return
	}
	rr.allMapsDone = true
	rr.maybeFinishShuffle()
}

// pumpFetchers starts fetch streams up to the configured parallelism,
// in the reduce's random fetch order.
func (rr *reduceRun) pumpFetchers() {
	for rr.activeFetchers < shuffleParallelism && len(rr.pending) > 0 {
		i := rr.r.rng.Intn(len(rr.pending))
		seg := rr.pending[i]
		rr.pending[i] = rr.pending[len(rr.pending)-1]
		rr.pending = rr.pending[:len(rr.pending)-1]
		rr.activeFetchers++
		rr.fetchSegment(seg, func() {
			if rr.cancelled {
				return // the attempt died; its node state is garbage
			}
			rr.activeFetchers--
			rr.segsDone++
			rr.fetchedBytes += seg.bytes
			rr.pumpFetchers()
			rr.maybeFinishShuffle()
		})
	}
}

// fetchSegment streams one segment: an intermediate read on the
// source's shard (the shuffle-serving I/O the NodeManager servlets
// perform), a tagged network hop if remote, then a local spill write
// unless the whole partition fits in the shuffle buffer. The chunk
// loop advances on the reduce's shard.
func (rr *reduceRun) fetchSegment(seg segment, done func()) {
	rt, node, src := rr.rt, rr.node, seg.srcNode
	chunked(rr.eng, rt.cfg.ChunkBytes, seg.bytes, func(c float64, next func()) {
		land := func() {
			if rr.inMem {
				next()
				return
			}
			rt.submit(rr.job, node, iosched.IntermediateWrite, c, rr.alive(next))
		}
		read := func() {
			if src == node {
				land()
				return
			}
			rt.send(rr.job, src, node, c, land)
		}
		// The chunk checks the attempt once, at its first continuation
		// on this reduce's shard: right after the read when the source
		// shares the shard, otherwise when the bytes land.
		if src.Shard() == node.Shard() {
			read = rr.alive(read)
		} else {
			land = rr.alive(land)
		}
		node.Shard().Post(src.Shard().ID(), 0, func() {
			rt.submit(rr.job, src, iosched.IntermediateRead, c, read)
		})
	}, done)
}

// maybeFinishShuffle closes the shuffle once the marker has arrived
// and every expected segment is in, then merges, computes and writes
// replicated output — all node-local.
func (rr *reduceRun) maybeFinishShuffle() {
	if rr.finishing || rr.cancelled {
		return
	}
	if !rr.allMapsDone || rr.segsDone < rr.expected {
		return
	}
	rr.finishing = true
	rt := rr.rt
	cpuPerByte := rr.job.Spec.ReduceCPUSecPerMB / 1e6
	alive := rr.alive
	// Merge: read back spilled shuffle data (skipped for in-memory
	// merges), interleaved with the reduce computation.
	merge := func(c float64, next func()) {
		rr.eng.Schedule(c*cpuPerByte, alive(next))
	}
	if !rr.inMem {
		merge = func(c float64, next func()) {
			rt.submit(rr.job, rr.node, iosched.IntermediateRead, c, alive(func() {
				rr.eng.Schedule(c*cpuPerByte, alive(next))
			}))
		}
	}
	chunked(rr.eng, rt.cfg.ChunkBytes, rr.fetchedBytes, merge, alive(func() {
		out := 0.0
		if n := rr.job.Spec.NumReduces; n > 0 {
			out = rr.job.Spec.OutputBytes / float64(n)
		}
		key := outputKey(rr.job.seq, keyKindReduce, rr.r.index, rr.att)
		rt.writeReplicated(rr.job, rr.node, rr.eng, out, key, alive(func() {
			rt.toCoord(rr.node, func() { rr.r.complete(rr.att) })
		}))
	}))
}

// writeReplicated is the HDFS write pipeline for size bytes of job
// output written from node n, whose engine is eng: the first copy
// lands on the local HDFS disk, the rest stream through the network to
// remote datanodes' HDFS schedulers, with the write-behind window
// advancing on the writer's shard. Copy completions are not
// attempt-guarded: a cancelled attempt drains its window (DESIGN.md
// §6); only done is guarded, by the caller.
func (rt *Runtime) writeReplicated(job *Job, n *cluster.Node, eng *sim.Engine, size float64, key uint64, done func()) {
	if size <= 0 {
		eng.Schedule(0, done)
		return
	}
	repl := rt.nn.Replication()
	if job.Spec.OutputReplication > 0 && job.Spec.OutputReplication < repl {
		repl = job.Spec.OutputReplication
	}
	// Replicas placed on dead nodes are dropped (the namenode would
	// re-replicate later; the write pipeline just skips them).
	var replicas []*cluster.Node
	for _, idx := range rt.nn.PlaceOutput(n.Index, key)[:repl] {
		if target := rt.cluster.Nodes[idx]; !target.Dead {
			replicas = append(replicas, target)
		}
	}
	if len(replicas) == 0 {
		replicas = []*cluster.Node{n}
	}
	windowed(eng, rt.cfg.ChunkBytes, size, rt.cfg.WriteAheadChunks, func(c float64, next func()) {
		remainingCopies := len(replicas)
		copyDone := func() {
			remainingCopies--
			if remainingCopies == 0 {
				next()
			}
		}
		for _, target := range replicas {
			if target == n {
				rt.submit(job, target, iosched.PersistentWrite, c, copyDone)
				continue
			}
			rt.send(job, n, target, c, func() {
				rt.submit(job, target, iosched.PersistentWrite, c, func() {
					target.Shard().Post(n.Shard().ID(), 0, copyDone)
				})
			})
		}
	}, done)
}

// cancelRun posts the cancel message for a preempted/restarted map
// attempt. Coordinator context only.
func (m *mapTask) cancelRun() {
	run := m.srun
	if run == nil {
		return
	}
	m.srun = nil
	m.job.rt.toNode(run.node, func() { run.cancelled = true })
}

// cancelRun posts the cancel message for a restarted reduce attempt.
func (r *reduceTask) cancelRun() {
	run := r.rrun
	if run == nil {
		return
	}
	r.rrun = nil
	r.job.rt.toNode(run.node, func() { run.cancelled = true })
}
