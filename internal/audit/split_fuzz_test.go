package audit

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// splitScheds is how many schedulers the fuzzed streams cover; the odd
// ones are coordinated, so the cluster-wide state and the degrade notes
// are exercised too.
const splitScheds = 4

// splitEvent is one entry of a shard's stream: a lifecycle event on
// scheduler sched, or a degrade/recover note for it.
type splitEvent struct {
	shard, sched int
	ev           iosched.ProbeEvent
	req          *iosched.Request
	st           iosched.ProbeState
}

// taggedPool returns requests of three apps carrying real SFQ tags,
// submitted in order to one SFQ(D) scheduler, and the tree that
// numbers the apps (a and c at weight 1, b at 2); replaying them out
// of order breaks start-tag monotonicity, and a virtual time above a
// start tag breaks tag consistency.
func taggedPool(tb testing.TB) ([]*iosched.Request, *shares.Tree) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	apps := []iosched.AppID{"a", "b", "c"}
	tree := shares.NewTree()
	tagger := sfqd(tb, eng, dev, tree, 2)
	for i, app := range apps {
		if err := tree.Bind(app, "", float64(1+i%2)); err != nil {
			tb.Fatal(err)
		}
	}
	var pool []*iosched.Request
	for i := 0; i < 12; i++ {
		req := &iosched.Request{AppIdx: tree.Index(apps[i%3]), Class: iosched.PersistentRead, Size: 1e6}
		if err := tagger.Submit(req); err != nil {
			tb.Fatal(err)
		}
		pool = append(pool, req)
	}
	return pool, tree
}

// splitAuditor builds an auditor of names' apps over splitScheds SFQ
// schedulers, the i-th on shard shardOf(i), and returns it with the
// schedulers' probes.
func splitAuditor(tb testing.TB, names *shares.Tree, shardOf func(int) int) (*Auditor, []iosched.Probe) {
	a := newShort(Options{CoordinationPeriod: 0.5}, names)
	a.recovery = 2
	probes := make([]iosched.Probe, splitScheds)
	for i := range probes {
		eng := sim.NewEngine()
		s := sfqd(tb, eng, storage.NewDevice(eng, "d", flatSpec()), names, 2)
		if i%2 == 1 {
			s.SetCoordinator(zeroCoord{})
		}
		probes[i] = a.Probe(shardOf(i), i, trace.DevHDFS, s)
	}
	return a, probes
}

// feed delivers one event to a's probe or note entry point.
func feed(a *Auditor, probes []iosched.Probe, e splitEvent) {
	switch e.ev {
	case trace.EventDegrade:
		a.NoteDegradeStart(e.sched, "hdfs", e.st.Time)
	case trace.EventRecover:
		a.NoteDegradeEnd(e.sched, "hdfs", e.st.Time)
	default:
		probes[e.sched].Observe(e.req, e.st)
	}
}

// FuzzAuditShardSplit judges one set of per-shard lifecycle streams
// three times: live, on a one-shard auditor fed the streams in (time,
// shard, order); at Finish, on a k-shard auditor whose shard logs are
// merged there; and window by window, on a k-shard auditor drained as
// a fabric barrier drains it, at times cut from cuts. The streams
// carry tag, depth, counter and latency breaches and degrade/recover
// notes; all three verdicts must agree on every check tally and
// violation.
func FuzzAuditShardSplit(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x10, 0x21, 0x04, 0x05, 0x96, 0x09, 0x2a, 0xc3, 0x11, 0x40, 0x7f, 0x13, 0x01, 0x00}, []byte{0x01, 0x03})
	f.Add(uint8(1), []byte{0x10, 0x00, 0x00, 0x11, 0x00, 0x00, 0x02, 0x30, 0xff, 0x17, 0x04, 0x80, 0x0b, 0x08, 0x41}, []byte{0x00, 0x00, 0x01})
	f.Add(uint8(2), []byte{0x03, 0x4c, 0x12, 0x07, 0x8d, 0x35, 0x16, 0x01, 0xe0, 0x1e, 0x02, 0x00, 0x05, 0x03, 0x22}, []byte{0x07})
	pool, names := taggedPool(f)
	f.Fuzz(func(t *testing.T, shards uint8, data, cuts []byte) {
		checkShardSplit(t, pool, names, shards, data, cuts)
	})
}

// checkShardSplit is FuzzAuditShardSplit's property on one input.
func checkShardSplit(t *testing.T, pool []*iosched.Request, names *shares.Tree, shards uint8, data, cuts []byte) {
	k := 2 + int(shards%3)
	// Every stream opens with an arrival on each scheduler, so the
	// battery is never vacuous; then each 3-byte group is one event
	// on one scheduler, at a clock step of 0–0.75 s on its shard.
	clock := make([]float64, k)
	var events []splitEvent
	add := func(sched int, ev iosched.ProbeEvent, dt float64, req *iosched.Request, st iosched.ProbeState) {
		shard := sched % k
		clock[shard] += dt
		st.Event, st.Time = ev, clock[shard]
		events = append(events, splitEvent{shard: shard, sched: sched, ev: ev, req: req, st: st})
	}
	for i := 0; i < splitScheds; i++ {
		add(i, iosched.ProbeArrive, 0, pool[i], iosched.ProbeState{Queued: 1, Depth: 2})
	}
	kinds := []iosched.ProbeEvent{
		iosched.ProbeArrive, iosched.ProbeDispatch, iosched.ProbeComplete,
		iosched.ProbeArrive, iosched.ProbeComplete, trace.EventDegrade, trace.EventRecover,
	}
	for ; len(data) >= 3; data = data[3:] {
		x, y, z := data[0], data[1], data[2]
		add(int(x)%splitScheds, kinds[int(x>>2)%len(kinds)], float64(y%4)*0.25, pool[int(y>>2)%len(pool)],
			iosched.ProbeState{
				Queued:   int(z & 3),
				InFlight: int(z >> 2 & 3),
				Depth:    2,
				VTime:    float64(z>>4) * 0.005,
				Latency:  float64(int(z>>6) - 1),
			})
	}

	live, liveProbes := splitAuditor(t, names, func(int) int { return 0 })
	merged := slices.Clone(events)
	slices.SortStableFunc(merged, func(x, y splitEvent) int {
		return cmp.Or(cmp.Compare(x.st.Time, y.st.Time), cmp.Compare(x.shard, y.shard))
	})
	for _, e := range merged {
		feed(live, liveProbes, e)
	}
	live.Finish()

	deferred, deferredProbes := splitAuditor(t, names, func(i int) int { return i % k })
	// Shard by shard, highest first: only the merge at Finish can
	// restore the live order.
	for shard := k - 1; shard >= 0; shard-- {
		for _, e := range events {
			if e.shard == shard {
				feed(deferred, deferredProbes, e)
			}
		}
	}
	if n := deferred.ViolationCount(); n != 0 {
		t.Fatalf("k-shard auditor judged %d violations before Finish", n)
	}
	deferred.Finish()

	// Fabric windows end at T1 < T2 < ..., each 0.125-2 s after the
	// last. Window i holds the records with time in [T(i-1), Ti); they
	// are written shard by shard, highest first, then drained as the
	// barrier hook drains them. Records past the last cut wait for
	// Finish.
	drained, drainedProbes := splitAuditor(t, names, func(i int) int { return i % k })
	lo, cut := math.Inf(-1), 0.0
	for i := 0; i <= len(cuts); i++ {
		hi := math.Inf(1)
		if i < len(cuts) {
			cut += 0.125 * float64(1+cuts[i]%16)
			hi = cut
		}
		for shard := k - 1; shard >= 0; shard-- {
			for _, e := range events {
				if e.shard == shard && e.st.Time >= lo && e.st.Time < hi {
					feed(drained, drainedProbes, e)
				}
			}
		}
		drained.drain()
		lo = hi
	}
	drained.Finish()

	if live.Checks()["lifecycle"] == 0 {
		t.Fatal("no lifecycle checks: the stream is vacuous")
	}
	for _, c := range []struct {
		how string
		a   *Auditor
	}{{"judged at Finish", deferred}, {"drained at barriers", drained}} {
		if !reflect.DeepEqual(c.a.Checks(), live.Checks()) {
			t.Fatalf("check tallies differ:\n  %d shards %s %v\n  one shard %v", k, c.how, c.a.Checks(), live.Checks())
		}
		if got, want := c.a.ViolationCount(), live.ViolationCount(); got != want {
			t.Fatalf("%d shards %s found %d violations, one shard %d", k, c.how, got, want)
		}
		if !reflect.DeepEqual(c.a.Violations(), live.Violations()) {
			t.Fatalf("violations differ:\n  %d shards %s %v\n  one shard %v", k, c.how, c.a.Violations(), live.Violations())
		}
	}
}
