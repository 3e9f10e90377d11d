// Package cgroups models the cgroups-blkio-based baselines the paper
// compares against in Section 7.4. Both modes share cgroups' fundamental
// limitation: they can only control I/Os issued directly to the local
// file system (intermediate I/O). Distributed HDFS I/O is serviced by
// the shared datanode daemon and passes through unscheduled — the wiring
// in the cluster package routes persistent I/O around these schedulers,
// reproducing that blind spot.
//
// Both modes are assembled from iosched's own schedulers. Weight mode
// approximates blkio.weight: proportional sharing of the local device
// among competing applications, an SFQ(D) queue for reads next to the
// native FIFO for buffered writes. Throttle mode approximates
// blkio.throttle.*_bps_device: iosched's token-bucket Pacer caps each
// application's read bandwidth in bytes, non-work-conserving by
// construction.
package cgroups

import (
	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// Weight is the blkio.weight baseline: CFQ group scheduling applied to
// the I/O the cgroup controller can actually attribute. Reads are
// weight-scheduled through an SFQ(D) queue; buffered writes reach the
// device through the kernel write-back path *outside* the issuing
// task's cgroup, so they pass through uncontrolled — the second half of
// why the paper finds cgroups "can only improve the query performance
// by 1.2%".
type Weight struct {
	reads  *iosched.SFQ
	writes *iosched.FIFO
	acct   *iosched.Accounting
}

// NewWeight builds the proportional-sharing cgroups baseline for one
// device. It must only be wired to intermediate (local) I/O. A depth
// below 1 is an error.
func NewWeight(eng *sim.Engine, dev *storage.Device, depth int) (*Weight, error) {
	reads, err := iosched.NewSFQD(eng, dev, depth)
	if err != nil {
		return nil, err
	}
	w := &Weight{
		reads:  reads,
		writes: iosched.NewFIFO(eng, dev),
		acct:   iosched.NewAccounting(),
	}
	w.SetProbe(nil)
	return w, nil
}

var _ iosched.Scheduler = (*Weight)(nil)

// Name implements iosched.Scheduler.
func (w *Weight) Name() string { return "cgroups-weight" }

// Queued implements iosched.Scheduler; writes never queue.
func (w *Weight) Queued() int { return w.reads.Queued() }

// InFlight implements iosched.Scheduler.
func (w *Weight) InFlight() int { return w.reads.InFlight() + w.writes.InFlight() }

// Accounting implements iosched.Scheduler: the merged view of both
// halves.
func (w *Weight) Accounting() *iosched.Accounting { return w.acct }

// SetProbe installs a lifecycle probe on both halves: the
// weight-scheduled reads report the full SFQ tag/depth state, the
// write-back pass-through the native FIFO's. Each half's first probe
// books its completions into the merged account.
func (w *Weight) SetProbe(p iosched.Probe) {
	book := iosched.ProbeFunc(w.book)
	w.reads.SetProbe(iosched.MultiProbe(book, p))
	w.writes.SetProbe(iosched.MultiProbe(book, p))
}

// book accounts a completed request's service in the merged view.
func (w *Weight) book(req *iosched.Request, st iosched.ProbeState) {
	if st.Event == iosched.ProbeComplete {
		w.acct.Add(req)
	}
}

// ReadSFQ exposes the inner weight-scheduled read queue, so auditors
// can apply the full SFQ invariant set to the controlled (read) half of
// this scheduler's traffic.
func (w *Weight) ReadSFQ() *iosched.SFQ { return w.reads }

// Submit implements iosched.Scheduler. Buffered write-back dispatches
// immediately and unattributed, though the FIFO still resolves its
// weight so accounting and audit see a tagged request.
func (w *Weight) Submit(req *iosched.Request) error {
	if req.Class.OpKind() == storage.Read {
		return w.reads.Submit(req)
	}
	return w.writes.Submit(req)
}

// NewThrottle builds the blkio throttling baseline: applications with a
// configured cap are released by a token bucket at that rate;
// everything else passes straight through. Throttled requests wait even
// when the device is idle (non-work-conserving), which is exactly why
// the paper finds it underutilizes storage and slows the capped
// application by up to 16% more than IBIS. Buffered writes bypass the
// throttle entirely — blkio v1 cannot attribute write-back I/O to the
// issuing cgroup.
//
// limits maps each capped application to its bandwidth cap in
// bytes/second; applications absent from the map are uncapped. Limits
// arrive from the public cluster config, so a non-positive rate is
// reported as an input error rather than a panic.
func NewThrottle(eng *sim.Engine, dev *storage.Device, limits map[iosched.AppID]float64) (*iosched.Pacer, error) {
	return iosched.NewThrottle(eng, dev, limits)
}
