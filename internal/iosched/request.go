// Package iosched implements the core contribution of the IBIS paper:
// the interposed big-data I/O scheduling framework and its
// proportional-share schedulers — classic SFQ(D) with a static dispatch
// depth and the new SFQ(D2) whose depth is adapted online by an integral
// feedback controller steering observed I/O latency toward a profiled
// reference.
//
// Every I/O issued by an application phase (persistent HDFS reads and
// writes, intermediate local-FS spills and merges, and shuffle serving)
// is tagged with the application's identifier and I/O weight and routed
// through a per-device Scheduler, exactly as IBIS interposes the
// DFSClient, local I/O, and shuffle-servlet paths on every datanode.
package iosched

import (
	"fmt"
	"math"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// AppID identifies an application (a MapReduce job, a Hive query, ...)
// across the entire cluster. IDs are assigned by the job scheduler and
// carried on every I/O request — the paper's DFSClient header extension.
type AppID string

// AppIdx is an application's dense index in its weight source's
// numbering: the share tree numbers apps as they bind, so per-app state
// downstream lives in slices, not in maps keyed by name. Every
// submitted request carries a valid one.
type AppIdx int32

// NoApp is the "no index" value: a caller passes it as the hint when it
// has no cached index, and a source returns it for an app it cannot
// number, which a scheduler then refuses.
const NoApp AppIdx = -1

// Class identifies the I/O phase a request belongs to. The scheduler
// treats all classes uniformly (that is the point of the interposition
// layer); classes exist for accounting and for wiring baselines that can
// only control a subset (cgroups sees intermediate I/O only).
type Class int32

const (
	// PersistentRead is a map task reading its input split from the DFS.
	PersistentRead Class = iota
	// PersistentWrite is a reduce task writing final output to the DFS
	// (including replication pipeline copies).
	PersistentWrite
	// IntermediateRead covers merge reads and shuffle-serving reads of
	// map outputs from the local file system.
	IntermediateRead
	// IntermediateWrite covers spill/merge writes of in-progress data to
	// the local file system.
	IntermediateWrite
	// NetworkTransfer is a network hop (shuffle or replication
	// pipeline). Only used when the cluster schedules NIC bandwidth —
	// the paper's OpenFlow-style extension; by default IBIS controls
	// the network indirectly at the storage endpoints.
	NetworkTransfer
	numClasses
)

// NumClasses is the number of I/O classes, exported so weight sources
// (the shares tree) can size per-class tables.
const NumClasses = int(numClasses)

// String names the class.
func (c Class) String() string {
	switch c {
	case PersistentRead:
		return "persistent-read"
	case PersistentWrite:
		return "persistent-write"
	case IntermediateRead:
		return "intermediate-read"
	case IntermediateWrite:
		return "intermediate-write"
	case NetworkTransfer:
		return "network"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// OpKind maps the class to the device-level operation direction.
// Network transfers count as writes (they push data).
func (c Class) OpKind() storage.OpKind {
	switch c {
	case PersistentRead, IntermediateRead:
		return storage.Read
	default:
		return storage.Write
	}
}

// Persistent reports whether the class is DFS (distributed) I/O — the
// kind cgroups-style local controls cannot differentiate.
func (c Class) Persistent() bool {
	return c == PersistentRead || c == PersistentWrite
}

// WeightSource resolves an application's effective I/O weight at tag
// time. The shares tree implements it for the hierarchical runtime
// control plane. Resolution happens when a scheduler computes the
// request's start and finish tags, so a weight change in the source
// takes effect on the next tagged request without touching queued
// ones.
type WeightSource interface {
	// Resolve returns app's index in the source's numbering (NoApp if
	// it cannot number app), the weight to tag (app, class) with,
	// and the version (epoch) of the weight table it came from. hint
	// is a cached index for app; a source returns it unhashed when it
	// names app, and looks the name up otherwise. Weights must be
	// positive and finite; only relative values matter.
	Resolve(app AppID, hint AppIdx, class Class) (idx AppIdx, weight float64, epoch uint64)
}

// Request is one tagged I/O operation presented to a scheduler.
type Request struct {
	// App is the issuing application's cluster-wide identifier.
	App AppID
	// Shares resolves the application's effective I/O weight when the
	// scheduler tags the request (see WeightSource). Required.
	Shares WeightSource
	// Class is the I/O phase.
	Class Class
	// AppIdx is App's index in Shares' numbering. A caller that caches
	// it may set it as a hint (a stale or foreign one costs a name
	// lookup, never a wrong flow); submission resolves it.
	AppIdx AppIdx
	// Size is the transfer size in bytes.
	Size float64
	// Done, if non-nil, fires at completion with DoneArg and the
	// request's total latency (arrival to completion, queueing
	// included). It may resubmit a caller-allocated record; a pooled
	// one is recycled when Done returns.
	Done    sim.DoneFunc
	DoneArg any

	// Scheduling state (owned by the scheduler).
	weight    float64
	epoch     uint64
	arrive    float64
	cost      float64
	startTag  float64
	finishTag float64
	seq       uint64
	flow      *flowState   // SFQ's per-app state, set at tagging
	pool      *RequestPool // the pool that handed the record out, if any
}

// Cost returns the request's normalized device cost, assigned at
// submission (zero before then).
func (r *Request) Cost() float64 { return r.cost }

// Seq returns the scheduler-local arrival sequence number; together
// with the scheduler's identity it uniquely names a request.
func (r *Request) Seq() uint64 { return r.seq }

// Weight returns the effective weight the scheduler resolved at tag
// time (zero before submission).
func (r *Request) Weight() float64 { return r.weight }

// ShareEpoch returns the weight-table version the request's weight was
// resolved against (zero before submission).
func (r *Request) ShareEpoch() uint64 { return r.epoch }

// StartTag returns the SFQ start tag assigned at arrival (zero for
// schedulers that do not use tags).
func (r *Request) StartTag() float64 { return r.startTag }

// FinishTag returns the SFQ finish tag assigned at arrival.
func (r *Request) FinishTag() float64 { return r.finishTag }

// twoNumberings is the error for a request whose index already names
// another app's state: a scheduler's requests must come from one share
// tree, so that one index names one app.
func twoNumberings(have, app AppID, key AppIdx) error {
	return fmt.Errorf("iosched: apps %q and %q share index %d: requests from two share trees", have, app, key)
}

// finish is every scheduler's completion tail: the ProbeComplete
// probe, then Done, then the record's return to its pool. st is the
// scheduler's state after the completion took effect.
func finish(p Probe, req *Request, st ProbeState) {
	st.Event, st.Latency = ProbeComplete, st.Time-req.arrive
	if p != nil {
		p.Observe(req, st)
	}
	if req.Done != nil {
		req.Done(req.DoneArg, st.Latency)
	}
	req.pool.put(req)
}

// reject returns a refused request's record to its pool and passes err
// on.
func reject(req *Request, err error) error {
	req.pool.put(req)
	return err
}

// prepare validates the request and resolves its effective weight
// through the weight source. Schedulers call it at the top of Submit —
// the tag-time resolution point — and surface the error to the caller
// instead of panicking: with weights arriving from a runtime control
// plane, a malformed request is an input error, not a programming one.
func (r *Request) prepare() error {
	if r.App == "" {
		return fmt.Errorf("iosched: request without app id")
	}
	if !(r.Size >= 0) || math.IsInf(r.Size, 1) {
		return fmt.Errorf("iosched: request for %q with invalid size %g (want finite and non-negative)", r.App, r.Size)
	}
	if r.Class < 0 || r.Class >= numClasses {
		return fmt.Errorf("iosched: request for %q with unknown class %d", r.App, int(r.Class))
	}
	if r.Shares == nil {
		return fmt.Errorf("iosched: request for %q without a weight source", r.App)
	}
	idx, w, epoch := r.Shares.Resolve(r.App, r.AppIdx, r.Class)
	if idx < 0 {
		return fmt.Errorf("iosched: weight source gave request for %q no app index", r.App)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("iosched: request for %q resolved non-positive weight %g", r.App, w)
	}
	r.AppIdx = idx
	r.weight = w
	r.epoch = epoch
	return nil
}
