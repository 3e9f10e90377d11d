// Package storage models block storage devices for the IBIS simulator.
//
// A Device wraps a processor-sharing resource whose aggregate service rate
// depends on the number of in-flight requests (the concurrency curve). All
// demands are normalized to "read-byte equivalents": a read of S bytes
// costs S units plus a fixed per-operation overhead, while a write costs
// S scaled by the device's read/write asymmetry. This folds SSD write
// slowness and HDD positioning overheads into a single capacity model —
// exactly the properties the SFQ(D)/SFQ(D2) depth parameter interacts
// with.
//
// HDDs additionally exhibit periodic write-back flushes: once enough
// dirty write bytes accumulate, capacity temporarily collapses, producing
// the latency spikes visible in Figure 7 of the paper.
package storage

import (
	"fmt"
	"math"

	"ibis/internal/sim"
)

// OpKind distinguishes reads from writes.
type OpKind int

const (
	// Read is a data read operation.
	Read OpKind = iota
	// Write is a data write operation.
	Write
)

// String returns "read" or "write".
func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Spec describes a device model. All bandwidths are bytes/second at the
// peak of the concurrency curve.
type Spec struct {
	// Name labels the model ("hdd", "ssd").
	Name string
	// ReadBW is the peak aggregate read bandwidth.
	ReadBW float64
	// WriteBW is the peak aggregate write bandwidth. Write demands are
	// scaled by ReadBW/WriteBW so the shared capacity is expressed in
	// read-byte equivalents.
	WriteBW float64
	// PerOpOverhead is the fixed cost of each operation, in read-byte
	// equivalents (positioning/setup time times ReadBW).
	PerOpOverhead float64
	// Curve[i] is the capacity multiplier (on ReadBW) with i+1 requests
	// in flight. Beyond the end of the curve each additional request
	// multiplies capacity by CurveDecay (thrashing); values are floored
	// at MinCurve.
	Curve []float64
	// CurveDecay is the per-extra-request multiplier past the curve end.
	CurveDecay float64
	// MinCurve floors the capacity multiplier.
	MinCurve float64
	// FlushThreshold is the dirty write volume (bytes) that triggers a
	// write-back flush; zero disables flushes.
	FlushThreshold float64
	// FlushDuration is how long a flush depresses capacity, seconds.
	FlushDuration float64
	// FlushFactor is the capacity multiplier while flushing.
	FlushFactor float64
}

// Validate reports configuration errors in the spec. Every rate,
// curve entry and factor must be a finite number in its range, so NaN
// and infinities are rejected along with non-positive values.
func (s *Spec) Validate() error {
	if !finitePositive(s.ReadBW) || !finitePositive(s.WriteBW) {
		return fmt.Errorf("storage: %s: bandwidths must be positive and finite (read=%g write=%g)", s.Name, s.ReadBW, s.WriteBW)
	}
	if !(s.PerOpOverhead >= 0) || math.IsInf(s.PerOpOverhead, 1) {
		return fmt.Errorf("storage: %s: per-op overhead %g must be non-negative and finite", s.Name, s.PerOpOverhead)
	}
	if len(s.Curve) == 0 {
		return fmt.Errorf("storage: %s: empty concurrency curve", s.Name)
	}
	for i, c := range s.Curve {
		if !finitePositive(c) {
			return fmt.Errorf("storage: %s: curve[%d] = %g must be positive and finite", s.Name, i, c)
		}
	}
	if !(s.CurveDecay > 0 && s.CurveDecay <= 1) {
		return fmt.Errorf("storage: %s: curve decay %g outside (0,1]", s.Name, s.CurveDecay)
	}
	if !finitePositive(s.MinCurve) {
		return fmt.Errorf("storage: %s: min curve %g must be positive and finite", s.Name, s.MinCurve)
	}
	if math.IsNaN(s.FlushThreshold) {
		return fmt.Errorf("storage: %s: flush threshold is NaN", s.Name)
	}
	if s.FlushThreshold > 0 && !(s.FlushFactor > 0 && s.FlushFactor <= 1 && finitePositive(s.FlushDuration)) {
		return fmt.Errorf("storage: %s: invalid flush parameters", s.Name)
	}
	return nil
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// WriteCost returns the multiplier applied to write sizes.
func (s *Spec) WriteCost() float64 { return s.ReadBW / s.WriteBW }

// multiplier evaluates the concurrency curve at n in-flight requests.
func (s *Spec) multiplier(n int) float64 {
	if n < 1 {
		n = 1
	}
	var m float64
	if n <= len(s.Curve) {
		m = s.Curve[n-1]
	} else {
		m = s.Curve[len(s.Curve)-1] * math.Pow(s.CurveDecay, float64(n-len(s.Curve)))
	}
	if m < s.MinCurve {
		m = s.MinCurve
	}
	return m
}

// HDDSpec models one 7.2K RPM SAS disk of the paper's testbed era:
// ~130 MB/s streaming reads, slightly slower writes, milliseconds of
// positioning per op, throughput that peaks around 4–8 concurrent
// streams and degrades with more (seek thrashing), and periodic
// write-back flushes.
func HDDSpec() Spec {
	return Spec{
		Name:          "hdd",
		ReadBW:        130e6,
		WriteBW:       110e6,
		PerOpOverhead: 0.15e6, // ≈1.2 ms amortized positioning (elevator)
		// Throughput climbs steeply until ~6 concurrent streams, then
		// keeps inching up as deeper queues give the elevator more
		// merging opportunities: an unbounded queue maximizes
		// utilization (the work-conserving appeal of native Hadoop)
		// while per-request latency grows linearly with depth (the
		// fairness cost SFQ(D) trades against).
		Curve:          hddCurve(),
		CurveDecay:     1.0,
		MinCurve:       0.60,
		FlushThreshold: 8e9, // dirty bytes before a write-back stall
		FlushDuration:  4,
		FlushFactor:    0.35,
	}
}

// hddCurve builds the HDD concurrency curve: a steep climb to ~1.0 at
// six streams, then a slow rise to 1.06 by depth 32 (queue-merging
// gains), flat afterwards.
func hddCurve() []float64 {
	curve := []float64{0.62, 0.78, 0.88, 0.95, 0.98, 1.0}
	for n := 7; n <= 32; n++ {
		curve = append(curve, 1.0+0.06*float64(n-6)/26)
	}
	return curve
}

// SSDSpec models an Intel 120 GB MLC SATA flash device: fast reads,
// writes roughly half the read rate, tiny per-op overhead, and internal
// parallelism that keeps improving up to a deep queue. No flush stalls.
func SSDSpec() Spec {
	return Spec{
		Name:          "ssd",
		ReadBW:        260e6,
		WriteBW:       125e6,
		PerOpOverhead: 0.03e6, // ≈0.12 ms
		Curve: []float64{
			0.48, 0.66, 0.78, 0.87, 0.92, 0.96, 0.98, 1.0, 1.0, 1.0, 1.0, 1.0,
		},
		CurveDecay: 1.0,
		MinCurve:   0.45,
	}
}

// Stats aggregates device-side accounting.
type Stats struct {
	ReadBytes    float64
	WriteBytes   float64
	ReadOps      uint64
	WriteOps     uint64
	Flushes      uint64
	TotalLatency float64 // summed in-device latency, seconds
}

// Ops returns the total operation count.
func (s Stats) Ops() uint64 { return s.ReadOps + s.WriteOps }

// MeanLatency returns average in-device latency over all completed ops.
func (s Stats) MeanLatency() float64 {
	n := s.Ops()
	if n == 0 {
		return 0
	}
	return s.TotalLatency / float64(n)
}

// Device is a simulated block device. Submit places a request directly in
// service (schedulers above the device decide admission: the dispatch
// depth D bounds how many requests a scheduler keeps in flight here).
type Device struct {
	eng   *sim.Engine
	spec  Spec
	res   *sim.PSResource
	stats Stats

	dirty    float64
	flushing bool
	flushEnd sim.Event

	finishFn sim.DoneFunc // cached finish method value
	free     []*devOp     // completed op records, reused by Submit
}

// devOp is one request in service: what finish books and whom it
// notifies. Records are recycled through the device's free list.
type devOp struct {
	kind OpKind
	size float64
	done sim.DoneFunc
	arg  any
}

// NewDevice builds a device from a spec, panicking on invalid specs
// (specs are programmer-supplied configuration, not runtime input).
func NewDevice(eng *sim.Engine, name string, spec Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{eng: eng, spec: spec}
	d.res = sim.NewPSResource(eng, name, func(n int) float64 {
		return spec.ReadBW * spec.multiplier(n)
	})
	d.finishFn = d.finish
	return d
}

// Spec returns the device's model parameters.
func (d *Device) Spec() Spec { return d.spec }

// InFlight returns the number of requests currently in service.
func (d *Device) InFlight() int { return d.res.InFlight() }

// Stats returns a copy of the accumulated counters.
func (d *Device) Stats() Stats { return d.stats }

// BusyTime returns seconds the device spent non-idle.
func (d *Device) BusyTime() float64 { return d.res.BusyTime() }

// Flushing reports whether a write-back flush is in progress.
func (d *Device) Flushing() bool { return d.flushing }

// Cost converts an operation to service units (read-byte equivalents).
func (d *Device) Cost(kind OpKind, size float64) float64 {
	units := size
	if kind == Write {
		units *= d.spec.WriteCost()
	}
	return units + d.spec.PerOpOverhead
}

// Submit starts servicing a request of `size` bytes. done, if non-nil,
// fires with arg and the in-device latency in seconds when the request
// completes.
func (d *Device) Submit(kind OpKind, size float64, done sim.DoneFunc, arg any) {
	if !(size >= 0) || math.IsInf(size, 1) {
		panic(fmt.Sprintf("storage: invalid request size %g", size))
	}
	var op *devOp
	if n := len(d.free); n > 0 {
		op = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		op = &devOp{}
	}
	*op = devOp{kind: kind, size: size, done: done, arg: arg}
	d.res.Submit(d.Cost(kind, size), d.finishFn, op)
}

// finish books a completed op and hands its latency to the submitter.
func (d *Device) finish(arg any, lat float64) {
	op := arg.(*devOp)
	kind, size, done, doneArg := op.kind, op.size, op.done, op.arg
	*op = devOp{}
	d.free = append(d.free, op)
	d.stats.TotalLatency += lat
	switch kind {
	case Read:
		d.stats.ReadBytes += size
		d.stats.ReadOps++
	case Write:
		d.stats.WriteBytes += size
		d.stats.WriteOps++
		d.noteDirty(size)
	}
	if done != nil {
		done(doneArg, lat)
	}
}

// SetDisturbance scales the device's capacity by factor until called
// again. It is intended for fault/disturbance injection in tests and
// experiments; the device's own flush mechanism overrides it while a
// flush is in progress.
func (d *Device) SetDisturbance(factor float64) {
	if !d.flushing {
		d.res.SetDisturbance(factor)
	}
}

// noteDirty accumulates dirty write bytes and triggers a flush stall when
// the threshold is crossed.
func (d *Device) noteDirty(bytes float64) {
	if d.spec.FlushThreshold <= 0 {
		return
	}
	d.dirty += bytes
	if d.dirty >= d.spec.FlushThreshold && !d.flushing {
		d.beginFlush()
	}
}

func (d *Device) beginFlush() {
	d.flushing = true
	d.dirty = 0
	d.stats.Flushes++
	d.res.SetDisturbance(d.spec.FlushFactor)
	d.flushEnd = d.eng.Schedule(d.spec.FlushDuration, func() {
		d.flushing = false
		d.res.SetDisturbance(1)
	})
}
