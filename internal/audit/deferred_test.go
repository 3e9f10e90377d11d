package audit_test

import (
	"reflect"
	"testing"

	"ibis/internal/audit"
	"ibis/internal/broker"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// xyz returns a share tree that numbers apps x, y and z as 0, 1 and 2.
func xyz() *shares.Tree {
	tree := shares.NewTree()
	for _, app := range []iosched.AppID{"x", "y", "z"} {
		tree.Index(app, iosched.NoApp)
	}
	return tree
}

// feedStream pushes a fixed lifecycle stream carrying five invariant
// breaches through the probe, mutating the (shared, pool-style) request
// object between observations — the logged record must have captured
// every field at probe time or the replay sees retagged garbage. Its
// apps are numbered as xyz numbers them.
func feedStream(p iosched.Probe) {
	req := &iosched.Request{App: "x", Class: iosched.PersistentRead, Size: 1e6}
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 0.5, Latency: -0.5})
	req.App, req.AppIdx = "y", 1 // simulate freelist reuse between events
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeArrive, Time: 1.0, Queued: -1})
	req.App, req.AppIdx = "z", 2
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 1.5, InFlight: 5, Depth: 2})
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 2.0, InFlight: 1, Depth: 2, VTime: 10})
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeDispatch, Time: 2.5, InFlight: 2, Depth: 2, VTime: 5})
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 3.0, Queued: 3, InFlight: 0, Depth: 2, Latency: 0.1})
}

func newAuditedSched() iosched.Scheduler {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	})
	s, err := iosched.NewSFQD(eng, dev, 2)
	if err != nil {
		panic(err)
	}
	return s
}

// TestDeferredReplayMatchesDirect pins the deferred-audit contract: a
// stream from a probe on a multi-shard auditor is logged and replayed
// at Finish, and yields exactly the verdict the one-shard auditor
// gives the same stream live — same violation count, same check
// tallies — with nothing judged before Finish.
func TestDeferredReplayMatchesDirect(t *testing.T) {
	direct := audit.New(audit.Options{}, xyz())
	p := direct.Probe(0, 0, trace.DevHDFS, newAuditedSched())
	feedStream(p)
	if direct.ViolationCount() == 0 {
		t.Fatal("one-shard auditor judged no breach before Finish: it must observe live, or the test stream is broken")
	}
	direct.Finish()

	deferredAud := audit.New(audit.Options{}, xyz())
	p = deferredAud.Probe(1, 0, trace.DevHDFS, newAuditedSched())
	deferredAud.Probe(2, 1, trace.DevHDFS, newAuditedSched()) // a second shard defers judgement
	feedStream(p)
	if got := deferredAud.ViolationCount(); got != 0 {
		t.Fatalf("multi-shard auditor judged %d violations before Finish, want 0", got)
	}
	deferredAud.Finish()

	if got, want := deferredAud.ViolationCount(), direct.ViolationCount(); got != want {
		t.Fatalf("deferred replay found %d violations, direct found %d", got, want)
	}
	if !reflect.DeepEqual(deferredAud.Checks(), direct.Checks()) {
		t.Fatalf("check tallies differ:\n  deferred %v\n  direct   %v", deferredAud.Checks(), direct.Checks())
	}
	for i, v := range deferredAud.Violations() {
		if v.Invariant != direct.Violations()[i].Invariant {
			t.Fatalf("violation %d: deferred %q vs direct %q", i, v.Invariant, direct.Violations()[i].Invariant)
		}
	}
}

// TestDeferredMergesShardLogsInTimeOrder plants breaches with the
// later one in the lower-numbered shard's log: if Finish concatenated
// the logs instead of merging by (time, shard), the violations would
// come out time-reversed. Two more breaches at one instant, logged
// higher shard first, must replay lower shard first.
func TestDeferredMergesShardLogsInTimeOrder(t *testing.T) {
	a := audit.New(audit.Options{}, xyz())
	p1 := a.Probe(1, 0, trace.DevHDFS, newAuditedSched())
	p2 := a.Probe(2, 1, trace.DevHDFS, newAuditedSched())
	req := &iosched.Request{App: "x", Class: iosched.PersistentRead, Size: 1e6}
	breach := func(p iosched.Probe, at float64) {
		p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: at, Latency: -1})
	}
	breach(p2, 1.0)
	breach(p1, 2.0)
	breach(p2, 3.0)
	breach(p1, 3.0)
	a.Finish()
	vs := a.Violations()
	if len(vs) != 4 {
		t.Fatalf("replay found %d violations, want 4: %v", len(vs), vs)
	}
	for i, want := range []struct {
		time float64
		node int
	}{{1, 1}, {2, 0}, {3, 0}, {3, 1}} {
		if vs[i].Time != want.time || vs[i].Node != want.node {
			t.Fatalf("violation %d at t=%v on node %d, want t=%v on node %d (merge order is time, then shard)",
				i, vs[i].Time, vs[i].Node, want.time, want.node)
		}
	}
}

// TestDeferredDegradeNoteJoinsShardLog notes a degradation and a
// recovery on a multi-shard auditor: the notes are found through the
// scheduler's (node, dev) registration, held in its shard's log rather
// than applied on the spot, and applied when Finish replays the log.
func TestDeferredDegradeNoteJoinsShardLog(t *testing.T) {
	a := audit.New(audit.Options{}, xyz())
	p := a.Probe(1, 0, trace.DevHDFS, newAuditedSched())
	a.Probe(2, 1, trace.DevHDFS, newAuditedSched())
	req := &iosched.Request{App: "x", Class: iosched.PersistentRead, Size: 1e6}
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeArrive, Time: 1.0})
	a.NoteDegradeStart(0, "disk", 2.0)
	if got := a.Checks()["degrade-noted"]; got != 0 {
		t.Fatalf("degrade note applied before Finish (%d), want it logged", got)
	}
	a.NoteDegradeEnd(0, "disk", 3.0)
	a.Finish()
	checks := a.Checks()
	if checks["degrade-noted"] != 1 || checks["recover-noted"] != 1 {
		t.Fatalf("replayed notes: %v, want one degrade and one recover", checks)
	}
}

// TestDeferredWhenBrokerOnOtherShard puts the only scheduler probe on
// a node shard and the broker on the coordinator shard: both write the
// auditor, from different shards, so the scheduler's events must be
// logged and judged at Finish rather than live.
func TestDeferredWhenBrokerOnOtherShard(t *testing.T) {
	a := audit.New(audit.Options{}, xyz())
	a.AttachBroker(0, broker.New())
	p := a.Probe(1, 0, trace.DevHDFS, newAuditedSched())
	req := &iosched.Request{App: "x", Class: iosched.PersistentRead, Size: 1e6}
	p.Observe(req, iosched.ProbeState{Event: iosched.ProbeComplete, Time: 1.0, Latency: -1})
	if got := a.ViolationCount(); got != 0 {
		t.Fatalf("judged %d violations live with the broker on another shard, want 0 before Finish", got)
	}
	a.Finish()
	if got := a.ViolationCount(); got != 1 {
		t.Fatalf("replay found %d violations, want 1", got)
	}
}
