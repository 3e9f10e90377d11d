package iosched_test

// Pooled-request conformance: the hollow-node fast path (RequestPool
// slab recycling) must be observationally identical to freshly
// allocated requests, for every scheduler in the tree. The pin is a digest over the full
// probe stream — event kind, virtual time, app, sequence number, tags,
// and queue/in-flight bookkeeping at each event — which is bit-equal
// across the two allocation strategies.

import (
	"math"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

const (
	digestOffset = 14695981039346656037
	digestPrime  = 1099511628211
)

func digestMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * digestPrime
		v >>= 8
	}
	return h
}

func digestStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * digestPrime
	}
	return h
}

// digestProbe folds every probe event into an FNV-1a digest, naming
// each request's app through names.
type digestProbe struct {
	h     uint64
	names *shares.Tree
}

func (d *digestProbe) Observe(req *iosched.Request, st iosched.ProbeState) {
	h := digestMix(d.h, uint64(st.Event))
	h = digestMix(h, math.Float64bits(st.Time))
	h = digestStr(h, string(d.names.AppName(req.AppIdx)))
	h = digestMix(h, req.Seq())
	h = digestMix(h, math.Float64bits(req.StartTag()))
	h = digestMix(h, math.Float64bits(req.FinishTag()))
	h = digestMix(h, uint64(st.Queued))
	h = digestMix(h, uint64(st.InFlight))
	d.h = h
}

// pooledWorkload replays the exact request mix of conformanceWorkload.
// With pool == nil it allocates fresh requests; otherwise it draws from
// the pool, and the scheduler recycles each record after its
// completion.
func pooledWorkload(t *testing.T, eng *sim.Engine, s iosched.Scheduler, pool *iosched.RequestPool) {
	classes := []iosched.Class{
		iosched.PersistentRead, iosched.IntermediateWrite,
		iosched.IntermediateRead, iosched.PersistentWrite,
	}
	for batch := 0; batch < 6; batch++ {
		batch := batch
		eng.Schedule(float64(batch)*0.5, func() {
			for ai := range conformApps {
				for k := 0; k < 3; k++ {
					size := 1e5 * float64(1+(batch+ai+k)%7)
					var req *iosched.Request
					if pool != nil {
						req = pool.Get()
						req.AppIdx = iosched.AppIdx(ai)
						req.Class = classes[(batch+ai+k)%len(classes)]
						req.Size = size
					} else {
						req = &iosched.Request{
							AppIdx: iosched.AppIdx(ai),
							Class:  classes[(batch+ai+k)%len(classes)],
							Size:   size,
						}
					}
					if err := s.Submit(req); err != nil {
						t.Fatalf("submit rejected: %v", err)
					}
				}
			}
		})
	}
}

func TestPooledRequestsConformance(t *testing.T) {
	for _, tc := range conformCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(pool *iosched.RequestPool) uint64 {
				eng := sim.NewEngine()
				dev := storage.NewDevice(eng, "d", conformSpec())
				tree := conformTree(t)
				s, err := tc.build(eng, dev, tree)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				dp := &digestProbe{h: digestOffset, names: tree}
				s.SetProbe(dp)
				pooledWorkload(t, eng, s, pool)
				eng.Run()
				if s.Queued() != 0 || s.InFlight() != 0 {
					t.Fatalf("not drained: queued=%d inflight=%d", s.Queued(), s.InFlight())
				}
				return dp.h
			}
			fresh := run(nil)
			// Hold 60 records first, so the workload's records straddle
			// the pool's first slab boundary (64 records).
			pool := new(iosched.RequestPool)
			const held = 60
			for i := 0; i < held; i++ {
				pool.Get()
			}
			pooled := run(pool)
			if fresh != pooled {
				t.Fatalf("probe-stream digest diverged: fresh=%016x pooled=%016x", fresh, pooled)
			}
			if got := pool.Outstanding() - held; got != 0 {
				t.Fatalf("pool leaked %d requests", got)
			}
		})
	}
}

// TestPooledRecordIntactInDone: on every scheduler, a pooled record's
// public fields are intact inside its Done, and the record goes back to
// its pool only after Done returns.
func TestPooledRecordIntactInDone(t *testing.T) {
	for _, tc := range conformCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			tree := weighTree(t, weighted{"A", 1}, weighted{"B", 2})
			s, err := tc.build(eng, storage.NewDevice(eng, "d", conformSpec()), tree)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			pool := new(iosched.RequestPool)
			completed := 0
			for i, class := range []iosched.Class{iosched.PersistentRead, iosched.IntermediateWrite} {
				req := pool.Get()
				req.AppIdx, req.Class, req.Size = 1, class, float64(1+i)*1e5
				req.Done = iosched.DoneFunc(func(done *iosched.Request, _ float64) {
					if done != req || req.AppIdx != 1 || req.Class != class || req.Size != float64(1+i)*1e5 || req.Weight() != 2 {
						t.Errorf("request %d changed before its Done: %+v", i, *req)
					}
					if got := pool.Outstanding(); got != 2-completed {
						t.Errorf("request %d: outstanding = %d inside Done, want %d", i, got, 2-completed)
					}
					completed++
				})
				if err := s.Submit(req); err != nil {
					t.Fatalf("submit rejected: %v", err)
				}
			}
			eng.Run()
			if completed != 2 || pool.Outstanding() != 0 {
				t.Fatalf("completed %d of 2, outstanding %d after the run, want 0", completed, pool.Outstanding())
			}
		})
	}
}

// TestPoolRejectedSubmitRecycles: a pooled request a scheduler rejects
// at Submit goes straight back to its pool, on every scheduler.
func TestPoolRejectedSubmitRecycles(t *testing.T) {
	for _, tc := range conformCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			s, err := tc.build(eng, storage.NewDevice(eng, "d", conformSpec()), conformTree(t))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			pool := new(iosched.RequestPool)
			req := pool.Get()
			req.AppIdx, req.Class, req.Size = 0, iosched.PersistentRead, -1 // a negative size
			req.Done = iosched.DoneFunc(func(*iosched.Request, float64) { t.Error("rejected request completed") })
			if err := s.Submit(req); err == nil {
				t.Fatal("request of negative size accepted")
			}
			if got := pool.Outstanding(); got != 0 {
				t.Fatalf("outstanding = %d after a rejected submit, want 0", got)
			}
			eng.Run()
		})
	}
	// A reservation also rejects a well-formed request from an app it
	// has no rate for.
	eng := sim.NewEngine()
	tree := weighTree(t, weighted{"A", 1}, weighted{"B", 1})
	s, err := iosched.NewReservation(eng, storage.NewDevice(eng, "d", conformSpec()), tree, map[iosched.AppID]float64{"A": 1e6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := new(iosched.RequestPool)
	req := pool.Get()
	req.AppIdx, req.Class, req.Size = 1, iosched.PersistentRead, 1e5
	if err := s.Submit(req); err == nil {
		t.Fatal("reservation accepted an app with no rate")
	}
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after a rejected reservation submit, want 0", got)
	}
}

// probeFunc adapts a function to iosched.Probe.
type probeFunc func(*iosched.Request, iosched.ProbeState)

func (f probeFunc) Observe(req *iosched.Request, st iosched.ProbeState) { f(req, st) }

// TestSchedulersRefuseUnnumberedApps: every scheduler refuses at Submit
// a request whose app index lies outside its weight source's numbering
// (below 0, at NumApps, or past it), on its read and its write path,
// before any probe sees it, and the pooled record goes back to its
// pool.
func TestSchedulersRefuseUnnumberedApps(t *testing.T) {
	for _, tc := range conformCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			tree := conformTree(t)
			s, err := tc.build(eng, storage.NewDevice(eng, "d", conformSpec()), tree)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			probed := 0
			s.SetProbe(probeFunc(func(*iosched.Request, iosched.ProbeState) { probed++ }))
			pool := new(iosched.RequestPool)
			n := iosched.AppIdx(tree.NumApps())
			for _, idx := range []iosched.AppIdx{iosched.NoApp, n, n + 7} {
				for _, class := range []iosched.Class{iosched.PersistentRead, iosched.IntermediateWrite} {
					req := pool.Get()
					req.AppIdx, req.Class, req.Size = idx, class, 1e5
					req.Done = iosched.DoneFunc(func(*iosched.Request, float64) { t.Error("refused request completed") })
					if err := s.Submit(req); err == nil {
						t.Fatalf("%v request with app index %d of %d accepted", class, idx, n)
					}
					if got := pool.Outstanding(); got != 0 {
						t.Fatalf("%v, index %d: outstanding = %d after a refused submit, want 0", class, idx, got)
					}
				}
			}
			eng.Run()
			if probed != 0 || s.Queued() != 0 || s.InFlight() != 0 || len(s.Accounting().Apps()) != 0 {
				t.Fatalf("refused requests left state: %d probe events, queued=%d inflight=%d apps=%v",
					probed, s.Queued(), s.InFlight(), s.Accounting().Apps())
			}
		})
	}
}
