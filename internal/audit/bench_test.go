package audit

import (
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// BenchmarkAuditDrain judges one fabric window of records per op: eight
// SFQ(D=4) schedulers, each probed from a shard of its own and kept
// backlogged by four closed-loop apps, log their records for one
// lookahead window of simulated time (timer stopped), then Auditor.drain
// merges the eight logs and judges every record. In steady state a
// drain allocates nothing; CI pins 0 allocs/op.
func BenchmarkAuditDrain(b *testing.B) {
	const shards, apps, depth = 8, 4, 4
	eng := sim.NewEngine()
	names := []iosched.AppID{"wordcount", "terasort", "grep", "sort"}
	tree := shares.NewTree()
	for i, app := range names {
		if err := tree.Bind(app, "", float64(1+i)); err != nil {
			b.Fatal(err)
		}
	}
	a := New(Options{}, tree)
	for shard := range shards {
		dev := storage.NewDevice(eng, "d", storage.Spec{
			Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
			Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
		})
		s := sfqd(b, eng, dev, tree, depth)
		s.SetProbe(a.Probe(shard, shard, trace.DevHDFS, s))
		for i := range apps {
			var issue iosched.DoneFunc
			issue = func(*iosched.Request, float64) {
				req := &iosched.Request{AppIdx: iosched.AppIdx(i), Class: iosched.PersistentRead, Size: 1e6, Done: issue}
				if err := s.Submit(req); err != nil {
					b.Fatal(err)
				}
			}
			for range 2 * depth {
				issue(nil, 0)
			}
		}
	}
	for range 500 { // past the first audit window, with every log grown
		eng.RunUntil(eng.Now() + cluster.DefaultLookahead)
		a.drain()
	}
	judged := a.checks[invLifecycle]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		eng.RunUntil(eng.Now() + cluster.DefaultLookahead)
		b.StartTimer()
		a.drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(a.checks[invLifecycle]-judged)/float64(b.N), "records/op")
	if a.Checks()["lifecycle"] == 0 || a.Checks()["proportional-share"] == 0 {
		b.Fatalf("vacuous: checks %v", a.Checks())
	}
	if err := a.Err(); err != nil {
		b.Fatal(err)
	}
}
