package metrics

// Scale-run metrics: the memory and throughput envelope of a hollow
// cluster run. Fairness tells whether the scheduler is right at scale;
// these numbers tell whether it is affordable — bytes of heap per
// in-flight request, bytes of heap per node, and simulator events per
// wall-clock second are the three axes the scale gates regress on.

import (
	"fmt"
	"runtime"
	"strings"
)

// HeapWatermark tracks live-heap growth over a run. Take the baseline
// after constructing the model (a forced GC makes it comparable across
// runs), Sample during the run, and read Growth at the end. Samples use
// HeapAlloc without forcing collection, so the watermark includes
// float garbage and is an upper bound on live state — the
// conservative side for a memory gate.
type HeapWatermark struct {
	baseline uint64
	peak     uint64
}

// NewHeapWatermark forces a GC and records the post-construction
// baseline.
func NewHeapWatermark() *HeapWatermark {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &HeapWatermark{baseline: m.HeapAlloc, peak: m.HeapAlloc}
}

// Sample reads the current heap and raises the watermark.
func (h *HeapWatermark) Sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.peak {
		h.peak = m.HeapAlloc
	}
}

// Peak returns the highest sampled heap in bytes.
func (h *HeapWatermark) Peak() uint64 { return h.peak }

// Growth returns peak minus baseline — the run's working set.
func (h *HeapWatermark) Growth() uint64 {
	if h.peak < h.baseline {
		return 0
	}
	return h.peak - h.baseline
}

// ScaleStats is the recorded envelope of one scale run. The simulation
// outcome fields (population, traffic, fairness, digest) are
// deterministic; the host-dependent fields (wall seconds, events/sec,
// heap) vary by machine and are reported separately from the
// deterministic digest surface.
type ScaleStats struct {
	// Population shape.
	Nodes, Tenants, Apps int
	// Traffic totals.
	Submitted, Completed uint64
	BytesServed          float64
	// PeakInFlight is the maximum simultaneous outstanding requests,
	// cluster-wide, observed at sampling ticks.
	PeakInFlight int
	// FairnessMaxRatio is the worst per-node max/min ratio of
	// weight-normalized service among continuously backlogged apps
	// (1.0 = perfect proportional sharing).
	FairnessMaxRatio float64
	// Digest fingerprints the full completion stream; equal digests
	// mean bit-identical runs.
	Digest uint64

	// Federation plane (all zero with one partition broker). The
	// sync counts and wire bytes are deterministic — encoding and sync
	// cadence are pure functions of the virtual timeline. BaselineBytes
	// is what a centralized full-vector broker would have shipped for
	// the same client exchange traffic; FedUpBytes+FedDownBytes against
	// it is the delta-compression ratio the federation gate enforces.
	Partitions    int
	FedSyncs      uint64
	FedSnapshots  uint64
	FedUpBytes    uint64
	FedDownBytes  uint64
	BaselineBytes uint64

	// Host-dependent envelope.
	Events        uint64
	WallSeconds   float64
	EventsPerSec  float64
	PeakHeapBytes uint64
	BytesPerFlow  float64
	BytesPerNode  float64

	// ShardLoad is the per-shard occupancy of the run (events are
	// deterministic, busy time is host wall clock); see ShardStats.
	ShardLoad ShardStats
}

// Deterministic formats the machine-independent outcome fields — the
// byte-identical-stdout surface of the scale experiment.
func (s ScaleStats) Deterministic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d tenants=%d apps=%d\n", s.Nodes, s.Tenants, s.Apps)
	fmt.Fprintf(&b, "submitted=%d completed=%d bytes=%.0f\n", s.Submitted, s.Completed, s.BytesServed)
	fmt.Fprintf(&b, "peak-in-flight=%d fairness-max-ratio=%.4f\n", s.PeakInFlight, s.FairnessMaxRatio)
	fmt.Fprintf(&b, "digest=%016x\n", s.Digest)
	if s.Partitions > 0 {
		fmt.Fprintf(&b, "partitions=%d fed-syncs=%d fed-snapshots=%d fed-bytes=%d baseline-bytes=%d\n",
			s.Partitions, s.FedSyncs, s.FedSnapshots, s.FedUpBytes+s.FedDownBytes, s.BaselineBytes)
	}
	return b.String()
}

// FedCompression returns the baseline-to-federation wire-volume ratio
// (0 with one partition or when nothing was shipped).
func (s ScaleStats) FedCompression() float64 {
	fed := s.FedUpBytes + s.FedDownBytes
	if s.Partitions == 0 || fed == 0 {
		return 0
	}
	return float64(s.BaselineBytes) / float64(fed)
}
