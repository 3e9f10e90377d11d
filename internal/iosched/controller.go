package iosched

import (
	"fmt"
	"math"

	"ibis/internal/sim"
)

// ControllerConfig parameterizes the SFQ(D2) depth controller:
//
//	D(k+1) = D(k) + K · (Lref − L(k))
//
// where L(k) is the mean in-device latency observed over control period
// k. For devices with asymmetric read/write performance, Lref is the
// read/write-mix-weighted combination of per-direction references
// (Section 4 of the paper).
type ControllerConfig struct {
	// Gain is the integral gain K, in depth units per second of latency
	// error. The paper quotes 10⁻⁶ for latencies counted in nanoseconds,
	// i.e. 1000 in depth-per-second terms; the effective value depends
	// on the device model, so it is calibrated per setup.
	Gain float64
	// ReadLref and WriteLref are the profiled reference latencies in
	// seconds (see storage.ProfileDevice). If WriteLref is zero,
	// ReadLref is used for both directions.
	ReadLref  float64
	WriteLref float64
	// MinDepth and MaxDepth clamp D. The paper bounds D in [1, 12].
	MinDepth int
	MaxDepth int
	// InitialDepth seeds D; defaults to MaxDepth (start permissive,
	// tighten under load).
	InitialDepth int
	// Trace, if non-nil, receives one record per control period —
	// exactly the data behind Figure 7.
	Trace func(TracePoint)
}

// TracePoint is one controller observation (Figure 7's series).
type TracePoint struct {
	Time     float64 // end of the control period
	Depth    int     // depth chosen for the next period
	DepthRaw float64 // unrounded controller state
	Latency  float64 // mean observed latency this period (0 if idle)
	Lref     float64 // reference used this period
	Samples  int     // completions observed this period
}

// controlPeriod is the control interval in seconds, the paper's 1 s.
const controlPeriod = 1.0

func (c *ControllerConfig) defaults() {
	if c.Gain <= 0 {
		c.Gain = 120
	}
	if c.MinDepth <= 0 {
		c.MinDepth = 1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.WriteLref <= 0 {
		c.WriteLref = c.ReadLref
	}
	if c.InitialDepth <= 0 {
		c.InitialDepth = c.MaxDepth
	}
}

// validate applies the defaults and rejects a configuration the
// controller cannot run. A non-finite gain or reference latency is
// rejected before the defaults see it: a NaN would otherwise make the
// depth NaN, which rounds to MinDepth without a word.
func (c *ControllerConfig) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"gain", c.Gain}, {"read reference latency", c.ReadLref}, {"write reference latency", c.WriteLref}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("iosched: controller %s must be finite (got %g)", f.name, f.v)
		}
	}
	c.defaults()
	if c.ReadLref <= 0 {
		return fmt.Errorf("iosched: controller requires a positive reference latency (got %g)", c.ReadLref)
	}
	if c.MinDepth > c.MaxDepth {
		return fmt.Errorf("iosched: controller depth bounds inverted: [%d, %d]", c.MinDepth, c.MaxDepth)
	}
	return nil
}

// DepthController implements the SFQ(D2) integral feedback loop. It is
// driven by the simulation clock: one adjustment per control period.
type DepthController struct {
	cfg      ControllerConfig
	d        float64
	latSum   float64
	samples  int
	reads    int
	onChange func()
	periods  uint64
}

// newDepthController starts the periodic control loop on eng, or
// returns an error for an invalid configuration.
func newDepthController(eng *sim.Engine, cfg ControllerConfig, onChange func()) (*DepthController, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &DepthController{cfg: cfg, d: float64(cfg.InitialDepth), onChange: onChange}
	var tick func()
	tick = func() {
		c.step(eng.Now())
		eng.ScheduleDaemon(controlPeriod, tick)
	}
	eng.ScheduleDaemon(controlPeriod, tick)
	return c, nil
}

// Depth returns the integer dispatch bound for the current period.
func (c *DepthController) Depth() int {
	d := int(c.d + 0.5)
	if d < c.cfg.MinDepth {
		d = c.cfg.MinDepth
	}
	if d > c.cfg.MaxDepth {
		d = c.cfg.MaxDepth
	}
	return d
}

// Raw returns the continuous controller state.
func (c *DepthController) Raw() float64 { return c.d }

// Periods returns how many control periods have elapsed.
func (c *DepthController) Periods() uint64 { return c.periods }

// SetTrace installs or replaces the per-period trace callback (the
// Figure 7 instrumentation).
func (c *DepthController) SetTrace(fn func(TracePoint)) { c.cfg.Trace = fn }

// Sample feeds one completed request's in-device latency to the
// controller. isRead tracks the read/write mix for the weighted
// reference.
func (c *DepthController) Sample(latency float64, isRead bool) {
	c.latSum += latency
	c.samples++
	if isRead {
		c.reads++
	}
}

// step closes the current control period and updates D.
func (c *DepthController) step(now float64) {
	c.periods++
	var lk, lref float64
	if c.samples > 0 {
		lk = c.latSum / float64(c.samples)
		readFrac := float64(c.reads) / float64(c.samples)
		lref = readFrac*c.cfg.ReadLref + (1-readFrac)*c.cfg.WriteLref
		c.d += c.cfg.Gain * (lref - lk)
		if c.d < float64(c.cfg.MinDepth) {
			c.d = float64(c.cfg.MinDepth)
		}
		if c.d > float64(c.cfg.MaxDepth) {
			c.d = float64(c.cfg.MaxDepth)
		}
	}
	// An idle period (no completions) leaves D unchanged: there is no
	// load signal to react to.
	if c.cfg.Trace != nil {
		c.cfg.Trace(TracePoint{
			Time:     now,
			Depth:    c.Depth(),
			DepthRaw: c.d,
			Latency:  lk,
			Lref:     lref,
			Samples:  c.samples,
		})
	}
	c.latSum, c.samples, c.reads = 0, 0, 0
	if c.onChange != nil {
		c.onChange()
	}
}
