package storage

import (
	"fmt"

	"ibis/internal/sim"
)

// ProfilePoint records the outcome of a closed-loop probe at one
// concurrency level.
type ProfilePoint struct {
	Concurrency int
	Throughput  float64 // bytes/second
	MeanLatency float64 // seconds
}

// Profile is the result of running the offline reference-latency
// calibration the paper describes in Section 4: a synthetic workload with
// increasing I/O concurrency, measuring latency and throughput; the
// latency observed just before the device saturates becomes Lref.
type Profile struct {
	Read  []ProfilePoint
	Write []ProfilePoint
	// ReadLref and WriteLref are the chosen reference latencies.
	ReadLref  float64
	WriteLref float64
}

// Lref returns the reference latency weighted by the given read fraction,
// implementing the paper's read/write-mix-weighted reference for
// asymmetric devices.
func (p Profile) Lref(readFrac float64) float64 {
	if readFrac < 0 {
		readFrac = 0
	}
	if readFrac > 1 {
		readFrac = 1
	}
	return readFrac*p.ReadLref + (1-readFrac)*p.WriteLref
}

// ProfileOptions configures the calibration probe.
type ProfileOptions struct {
	// RequestSize is the probe request size, bytes. Default 2 MB — the
	// execution engine's default chunking granularity, so the
	// reference latency is measured with representative requests.
	RequestSize float64
	// MaxConcurrency is the deepest queue probed. Default 16.
	MaxConcurrency int
	// Duration is the probe length per concurrency level, seconds of
	// virtual time. Default 30.
	Duration float64
}

// saturationFraction starts the knee search at the smallest concurrency
// achieving this fraction of the peak throughput.
const saturationFraction = 0.8

func (o *ProfileOptions) defaults() {
	if o.RequestSize <= 0 {
		o.RequestSize = 2e6
	}
	if o.MaxConcurrency <= 0 {
		o.MaxConcurrency = 16
	}
	if o.Duration <= 0 {
		o.Duration = 30
	}
}

// ProfileDevice performs the offline calibration for a device spec. It
// simulates closed loops of reads and of writes at each concurrency level
// on a private engine (the real device is never disturbed) and derives
// reference latencies. This needs to run once per storage setup, exactly
// as in the paper.
func ProfileDevice(spec Spec, opts ProfileOptions) (Profile, error) {
	if err := spec.Validate(); err != nil {
		return Profile{}, err
	}
	opts.defaults()
	// Flushes are a runtime disturbance, not part of the steady-state
	// reference; profile with them disabled like a short calibration run.
	probeSpec := spec
	probeSpec.FlushThreshold = 0

	var prof Profile
	for _, kind := range []OpKind{Read, Write} {
		points := make([]ProfilePoint, 0, opts.MaxConcurrency)
		for n := 1; n <= opts.MaxConcurrency; n++ {
			points = append(points, probe(probeSpec, kind, n, opts))
		}
		lref, err := pickReference(points, saturationFraction)
		if err != nil {
			return Profile{}, fmt.Errorf("storage: profiling %s %s: %w", spec.Name, kind, err)
		}
		if kind == Read {
			prof.Read = points
			prof.ReadLref = lref
		} else {
			prof.Write = points
			prof.WriteLref = lref
		}
	}
	return prof, nil
}

// probe runs one closed-loop measurement: n outstanding requests are kept
// in flight for the configured duration.
func probe(spec Spec, kind OpKind, n int, opts ProfileOptions) ProfilePoint {
	eng := sim.NewEngine()
	dev := NewDevice(eng, "probe", spec)
	var bytes, latSum float64
	var ops uint64
	var issue func()
	issue = func() {
		dev.Submit(kind, opts.RequestSize, func(_ any, lat float64) {
			bytes += opts.RequestSize
			latSum += lat
			ops++
			if eng.Now() < opts.Duration {
				issue()
			}
		}, nil)
	}
	for i := 0; i < n; i++ {
		issue()
	}
	end := eng.Run()
	if end <= 0 || ops == 0 {
		return ProfilePoint{Concurrency: n}
	}
	return ProfilePoint{
		Concurrency: n,
		Throughput:  bytes / end,
		MeanLatency: latSum / float64(ops),
	}
}

// pickReference selects the mean latency at the knee of the
// throughput-vs-concurrency curve: the smallest concurrency where both
// (a) throughput has reached satFrac of the eventual peak and (b) the
// marginal gain of one more outstanding request drops below 1% — "the
// I/O latency observed before the storage starts to saturate".
func pickReference(points []ProfilePoint, satFrac float64) (float64, error) {
	peak := 0.0
	for _, p := range points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	if peak <= 0 {
		return 0, fmt.Errorf("no throughput observed")
	}
	for i, p := range points {
		if p.Throughput < satFrac*peak {
			continue
		}
		if i+1 >= len(points) || points[i+1].Throughput < p.Throughput*1.01 {
			return p.MeanLatency, nil
		}
	}
	return points[len(points)-1].MeanLatency, nil
}
