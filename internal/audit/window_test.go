package audit

// Tests of the one audit window clock and of when logged records are
// judged: the cluster-wide check over hand-crafted records, and a
// sharded run drained at every fabric barrier.

import (
	"math"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// flatSpec is a device with a constant service rate.
// sfqd builds an SFQ(D) scheduler on dev.
func sfqd(tb testing.TB, eng *sim.Engine, dev *storage.Device, src iosched.WeightSource, depth int) *iosched.SFQ {
	tb.Helper()
	s, err := iosched.NewSFQD(eng, dev, src, depth)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// newShort is New with 1 s windows that one completion qualifies for:
// the hand-built scenarios are shorter than the 5 s, four-completion
// default allows.
func newShort(opts Options, names *shares.Tree) *Auditor {
	a := New(opts, names)
	a.window, a.minRequests = 1, 1
	return a
}

func flatSpec() storage.Spec {
	return storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	}
}

// TestClusterCheckDetectsBreach feeds two coordinated schedulers
// hand-crafted records. Apps a and b queue on scheduler 1 at t=0.5 and
// stay queued; scheduler 1 writes no record after that, so in window
// [1,2) its backlog is only what the earlier arrivals left. In that
// window scheduler 0 completes 100 of a's requests and one of b's, all
// of unit cost and weight: a's total normalized service exceeds b's by
// far more than the cluster bound.
func TestClusterCheckDetectsBreach(t *testing.T) {
	tree := shares.NewTree()
	a := newShort(Options{CoordinationPeriod: 0.1}, tree)
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	tagger := sfqd(t, eng, dev, tree, 2)
	probes := make([]iosched.Probe, 2)
	for i := range probes {
		s := sfqd(t, eng, dev, tree, 2)
		s.SetCoordinator(zeroCoord{})
		probes[i] = a.Probe(0, i, trace.DevHDFS, s)
	}
	reqs := map[iosched.AppID]*iosched.Request{}
	for _, app := range []iosched.AppID{"a", "b"} {
		req := &iosched.Request{AppIdx: tree.Index(app), Class: iosched.PersistentRead, Size: 1}
		if err := tagger.Submit(req); err != nil {
			t.Fatal(err)
		}
		reqs[app] = req
	}
	probes[1].Observe(reqs["a"], iosched.ProbeState{Event: iosched.ProbeArrive, Time: 0.5, Queued: 1, Depth: 2})
	probes[1].Observe(reqs["b"], iosched.ProbeState{Event: iosched.ProbeArrive, Time: 0.5, Queued: 2, Depth: 2})
	complete := func(app iosched.AppID, at float64) {
		probes[0].Observe(reqs[app], iosched.ProbeState{Event: iosched.ProbeComplete, Time: at, Depth: 2, Latency: 0.01})
	}
	for i := 0; i < 100; i++ {
		complete("a", 1+float64(i)*0.005)
	}
	complete("b", 1.9)
	a.Finish()

	want := Violation{
		Time: 2, Invariant: "total-proportional-share", Node: -1, App: "a",
		Detail: "window [1.0s,2.0s): total normalized service a=100 vs b=1, |diff| 99 > bound 47.2 (D=2)",
	}
	if got := a.Violations(); len(got) != 1 || got[0] != want {
		t.Fatalf("violations = %v\nwant exactly [%v]", got, want)
	}
	if n := a.Checks()["total-proportional-share"]; n != 1 {
		t.Fatalf("total-proportional-share checked %d times, want 1 (window [1,2) only)", n)
	}
}

// TestShardedAuditLogEmptyAfterEveryBarrier runs closed-loop I/O on a
// coordinated hollow cluster across the fabric at two workers. Its
// scheduler probes sit on several shards, so records wait in the
// auditor's logs, but Attach judges them at every barrier: a hook that
// runs after the auditor's must find the logs empty each time, and
// Finish has nothing left to judge.
func TestShardedAuditLogEmptyAfterEveryBarrier(t *testing.T) {
	cl, err := cluster.NewHollowSharded(cluster.Config{
		Nodes: 3, HDFSDisk: flatSpec(), Policy: cluster.SFQD, Coordinate: true,
	}, 0, sim.FabricOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := newShort(Options{}, cl.Shares())
	a.Attach(cl, 1)
	barriers, held := 0, 0
	cl.OnBarrier(func() {
		barriers++
		a.log.Drain(cl.Shares(), func(*trace.Record, iosched.AppIdx) { held++ })
	})
	apps := []iosched.AppID{"a", "b"}
	for i, app := range apps {
		if err := cl.Shares().Bind(app, "", float64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 5.0
	for _, n := range cl.Nodes {
		for _, app := range apps {
			idx := cl.Shares().Index(app)
			var issue iosched.DoneFunc
			issue = func(*iosched.Request, float64) {
				if n.Shard().Engine().Now() >= horizon {
					return
				}
				req := &iosched.Request{AppIdx: idx, Class: iosched.PersistentRead, Size: 1e6, Done: issue}
				if err := n.SubmitIO(req); err != nil {
					t.Error(err)
				}
			}
			for range 4 {
				issue(nil, 0)
			}
		}
	}
	cl.RunUntil(math.Inf(1))
	a.Finish()
	if fs := cl.FabricStats(); barriers == 0 || fs.ParallelWindows == 0 {
		t.Fatalf("%d barriers, %d parallel windows: the run never wrote the logs from two shards at once", barriers, fs.ParallelWindows)
	}
	if held != 0 {
		t.Fatalf("%d records were still logged after the auditor's barrier drain", held)
	}
	if a.Checks()["lifecycle"] == 0 {
		t.Fatal("no lifecycle checks: the run is vacuous")
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}
