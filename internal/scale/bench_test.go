package scale

import (
	"fmt"
	"testing"
)

// BenchmarkScaleGate1000 is the acceptance-criteria shape — 1000 hollow
// nodes, 10k tenants, >1M requests in flight — run at each worker
// count. The reported metrics are the throughput (events/sec) and
// memory (bytes/flow, peak-heap-MB) envelope; TestScaleGate asserts the
// memory budgets on its own run. Digest equality across the worker
// counts is asserted inline.
func BenchmarkScaleGate1000(b *testing.B) {
	var serial uint64
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(Config{
					Nodes:            1000,
					Tenants:          10000,
					AppsPerTenant:    1,
					Replicas:         3,
					Seed:             20260809,
					Horizon:          25,
					Workers:          workers,
					Audit:            true,
					AuditSampleEvery: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.AuditErr != nil {
					b.Fatalf("audit: %v", rep.AuditErr)
				}
				st := rep.Stats
				if workers == 1 {
					serial = st.Digest
				} else if serial != 0 && st.Digest != serial {
					b.Fatalf("workers=%d digest %016x != serial %016x", workers, st.Digest, serial)
				}
				b.ReportMetric(st.EventsPerSec, "events/sec")
				b.ReportMetric(st.BytesPerFlow, "bytes/flow")
				b.ReportMetric(float64(st.PeakHeapBytes)/1e6, "peak-heap-MB")
				b.ReportMetric(float64(st.PeakInFlight), "peak-in-flight")
			}
		})
	}
}

// BenchmarkFederationGate1000 is the federated acceptance shape — the
// same 1000-node/10k-tenant population coordinated through 8 partition
// brokers and a root aggregator. The reported metrics are federation
// bytes on the wire, the centralized-equivalent baseline those bytes
// replace, their ratio (compression-x) and bytes per sync period;
// TestFederationGate asserts the budgets on the last two. Digest
// equality across worker counts is asserted inline.
func BenchmarkFederationGate1000(b *testing.B) {
	var serial uint64
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(Config{
					Nodes:            1000,
					Tenants:          10000,
					AppsPerTenant:    1,
					Replicas:         3,
					Seed:             20260809,
					Horizon:          25,
					Workers:          workers,
					Coordinate:       true,
					Partitions:       8,
					Audit:            true,
					AuditSampleEvery: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.AuditErr != nil {
					b.Fatalf("audit: %v", rep.AuditErr)
				}
				st := rep.Stats
				if workers == 1 {
					serial = st.Digest
				} else if serial != 0 && st.Digest != serial {
					b.Fatalf("workers=%d digest %016x != serial %016x", workers, st.Digest, serial)
				}
				fedBytes := st.FedUpBytes + st.FedDownBytes
				b.ReportMetric(st.EventsPerSec, "events/sec")
				b.ReportMetric(float64(st.PeakInFlight), "peak-in-flight")
				b.ReportMetric(float64(fedBytes), "fed-bytes")
				b.ReportMetric(float64(st.BaselineBytes), "baseline-bytes")
				b.ReportMetric(st.FedCompression(), "compression-x")
				if st.FedSyncs > 0 {
					b.ReportMetric(float64(fedBytes)/float64(st.FedSyncs), "bytes/sync")
				}
			}
		})
	}
}
