package iosched_test

// Pooled-request conformance: the hollow-node fast path (RequestPool
// slab recycling) must be observationally
// identical to freshly allocated requests with plain string app IDs,
// for every scheduler in the tree. The pin is a digest over the full
// probe stream — event kind, virtual time, app, sequence number, tags,
// and queue/in-flight bookkeeping at each event — which is bit-equal
// across the two allocation strategies.

import (
	"math"
	"testing"

	"ibis/internal/iosched"
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

// digestProbe folds every probe event into an FNV-1a digest.
type digestProbe struct {
	h uint64
}

func (d *digestProbe) Observe(req *iosched.Request, st iosched.ProbeState) {
	h := digestMix(d.h, uint64(st.Event))
	h = digestMix(h, math.Float64bits(st.Time))
	h = digestStr(h, string(req.App))
	h = digestMix(h, req.Seq())
	h = digestMix(h, math.Float64bits(req.StartTag()))
	h = digestMix(h, math.Float64bits(req.FinishTag()))
	h = digestMix(h, uint64(st.Queued))
	h = digestMix(h, uint64(st.InFlight))
	d.h = h
}

// pooledWorkload replays the exact request mix of conformanceWorkload.
// With pool == nil it allocates fresh requests; otherwise it draws from
// the pool and recycles each request at OnDone (the earliest safe
// point: the scheduler's last touch).
func pooledWorkload(t *testing.T, eng *sim.Engine, s iosched.Scheduler, pool *iosched.RequestPool) {
	apps := []struct {
		id iosched.AppID
		w  float64
	}{{"A", 4}, {"B", 2}, {"C", 1}}
	classes := []iosched.Class{
		iosched.PersistentRead, iosched.IntermediateWrite,
		iosched.IntermediateRead, iosched.PersistentWrite,
	}
	for batch := 0; batch < 6; batch++ {
		batch := batch
		eng.Schedule(float64(batch)*0.5, func() {
			for ai, app := range apps {
				for k := 0; k < 3; k++ {
					size := 1e5 * float64(1+(batch+ai+k)%7)
					var req *iosched.Request
					if pool != nil {
						req = pool.Get()
						req.App = app.id
						req.Shares = iosched.FixedWeight(app.w)
						req.Class = classes[(batch+ai+k)%len(classes)]
						req.Size = size
						req.OnDone = func(float64) { pool.Put(req) }
					} else {
						req = &iosched.Request{
							App:    app.id,
							Shares: iosched.FixedWeight(app.w),
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
				s, err := tc.build(eng, dev)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				dp := &digestProbe{h: digestOffset}
				s.SetProbe(dp)
				pooledWorkload(t, eng, s, pool)
				eng.Run()
				if s.Queued() != 0 || s.InFlight() != 0 {
					t.Fatalf("not drained: queued=%d inflight=%d", s.Queued(), s.InFlight())
				}
				return dp.h
			}
			fresh := run(nil)
			pool := iosched.NewRequestPool(16)
			pooled := run(pool)
			if fresh != pooled {
				t.Fatalf("probe-stream digest diverged: fresh=%016x pooled=%016x", fresh, pooled)
			}
			if pool.Outstanding() != 0 {
				t.Fatalf("pool leaked %d requests", pool.Outstanding())
			}
		})
	}
}
