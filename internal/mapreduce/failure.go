package mapreduce

import "ibis/internal/cluster"

// Node-failure injection with Hadoop's recovery semantics:
//
//   - tasks running on the failed node are killed and requeued;
//   - completed map outputs stored on the node are lost, so those maps
//     re-execute if any reduce still needs their partitions;
//   - reduces that were running on the node restart from scratch
//     (their fetched and spilled data lived there);
//   - unfetched shuffle segments pointing at the node are purged — the
//     re-executed maps will republish them;
//   - the fair scheduler stops placing tasks on the node.
//
// The failure model is node-level: in-flight device operations drain
// (no mid-request corruption), block replicas on surviving nodes keep
// the DFS readable as long as the replication factor tolerates the
// loss.

// FailNode marks the datanode dead and triggers recovery. Failing an
// already-dead node is a no-op.
func (rt *Runtime) FailNode(idx int) {
	if rt.cluster.Shards() > 1 {
		// Recovery walks and mutates task state that lives on the node
		// shards; across more than one shard that would need a
		// cross-shard resurrection protocol, which does not exist yet.
		panic("mapreduce: FailNode is unsupported on a multi-shard cluster")
	}
	n := rt.cluster.Nodes[idx]
	if n.Dead {
		return
	}
	n.Dead = true
	// Disconnect the node's coordination clients: its schedulers will
	// never report again, and leaving its last service vectors at the
	// broker would delay surviving nodes' flows against a ghost.
	rt.cluster.DetachNode(idx)
	// Clear every reservation: the headroom math changed with the
	// cluster size, and a reservation whose reduce can no longer be
	// admitted would block its node's maps forever. Viable ones re-form
	// on the next pump.
	rt.fair.reservations = make(map[*cluster.Node]*Job)

	for _, j := range rt.jobs {
		if j.finished() {
			continue
		}
		needOutputs := j.reducesDone < len(j.reduces) && j.Spec.MapOutputBytes > 0
		for _, m := range j.maps {
			switch {
			case m.state == taskRunning && m.node == n:
				m.preempt()
				rt.failedTasks++
			case m.state == taskDone && m.node == n && needOutputs:
				// The map's intermediate output died with the node:
				// re-execute (Hadoop re-schedules completed maps of
				// failed TaskTrackers for exactly this reason).
				m.attempt++
				m.state = taskPending
				m.node = nil
				j.mapsDone--
				rt.rerunMaps++
			}
		}
		for _, r := range j.reduces {
			if r.state == taskRunning && r.node == n {
				r.restart()
				rt.failedTasks++
			}
			if r.state == taskDone {
				continue
			}
			r.pending = withoutSource(r.pending, n)
			// On one shard the running attempt is directly reachable:
			// purge its queue too, and reopen its shuffle barrier if
			// this failure sent completed maps back to re-run.
			if run := r.rrun; run != nil {
				run.pending = withoutSource(run.pending, n)
				run.allMapsDone = j.mapsDone == len(j.maps)
			}
		}
	}
	rt.reclaimShuffleHeadroom()
	rt.fair.pump()
}

// reclaimShuffleHeadroom restarts waiting (shuffling) reduces until the
// headroom guard holds on the shrunken cluster: after losing nodes, the
// survivors' memory could be entirely parked on reduces waiting for
// maps that now have nowhere to run — the deadlock the guard normally
// prevents at placement time.
func (rt *Runtime) reclaimShuffleHeadroom() {
	limit := 0.5 * rt.fair.clusterMemGB()
	for rt.fair.waitingReduceMemGB("") > limit {
		var victim *reduceTask
		for _, j := range rt.jobs {
			if j.finished() || j.mapsDone == len(j.maps) {
				continue
			}
			for _, r := range j.reduces {
				if r.state == taskRunning && !r.rrun.finishing {
					victim = r // youngest wins: keep scanning
				}
			}
		}
		if victim == nil {
			return
		}
		victim.restart()
		rt.failedTasks++
	}
}

// FailedTasks returns how many running task attempts node failures have
// killed.
func (rt *Runtime) FailedTasks() uint64 { return rt.failedTasks }

// RerunMaps returns how many completed maps were re-executed because
// their outputs were lost.
func (rt *Runtime) RerunMaps() uint64 { return rt.rerunMaps }

// restart requeues a reduce whose node died: everything it fetched and
// spilled is gone, so it starts from an empty shuffle.
func (r *reduceTask) restart() {
	r.cancelRun()
	job := r.job
	job.rt.fair.releaseReduce(r.node, job, job.Spec.ReduceMemGB)
	r.attempt++
	r.state = taskPending
	r.node = nil
	r.pending = nil
	r.segsDone = 0
}

// withoutSource drops, in place and in order, the segments fetched
// from node n.
func withoutSource(segs []segment, n *cluster.Node) []segment {
	kept := segs[:0]
	for _, seg := range segs {
		if seg.srcNode != n {
			kept = append(kept, seg)
		}
	}
	return kept
}

// reseedSegments repopulates a restarted reduce's queue from every
// completed map whose output survives.
func (r *reduceTask) reseedSegments() {
	j := r.job
	if j.Spec.MapOutputBytes <= 0 {
		return
	}
	for _, m := range j.maps {
		if m.state != taskDone || m.node == nil || m.node.Dead {
			continue
		}
		if b := m.interBytes(); b > 0 {
			r.pending = append(r.pending, segment{srcNode: m.node, bytes: b / float64(len(j.reduces))})
		}
	}
}
