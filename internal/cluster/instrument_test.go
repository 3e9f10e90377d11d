package cluster

import (
	"testing"

	"ibis/internal/iosched"
)

// lifecycleTally counts one probe's events per request, indexed by
// iosched.ProbeEvent. Keying by *Request is sound only because the
// tests that use it allocate their own requests: a pooled record is
// recycled after completion, so its pointer names a new request later.
type lifecycleTally map[*iosched.Request]*[3]int

func (l lifecycleTally) Observe(req *iosched.Request, st iosched.ProbeState) {
	c := l[req]
	if c == nil {
		c = new([3]int)
		l[req] = c
	}
	c[st.Event]++
}

// TestInstrumentComposes: on every policy, two Instrument calls and a
// SetIOObserver each attach without displacing the others. Both probes
// see every request arrive, dispatch and complete exactly once, and the
// observer sees exactly one completion per request with the latency the
// scheduler reported to the request — on both devices, reads and
// writes, including the cgroups weight policy's uncontrolled writes and
// the throttle's capped queue.
func TestInstrumentComposes(t *testing.T) {
	for _, pol := range []Policy{Native, SFQD, SFQD2, CGWeight, CGThrottle, Reserve} {
		t.Run(pol.String(), func(t *testing.T) {
			eng, c := newCluster(t, Config{
				Nodes:              2,
				Policy:             pol,
				ThrottleLimits:     map[iosched.AppID]float64{"A": 20e6},
				ReservationDefault: 50e6,
			})
			probes := []lifecycleTally{{}, {}}
			for _, p := range probes {
				p := p
				c.Instrument(func(_, _ int, _ string, _ iosched.Scheduler) iosched.Probe { return p })
			}
			observed := make(map[*iosched.Request][]float64)
			c.SetIOObserver(func(_ int, req *iosched.Request, lat float64) {
				observed[req] = append(observed[req], lat)
			})

			done := make(map[*iosched.Request]float64)
			var reqs []*iosched.Request
			for _, n := range c.Nodes {
				for _, class := range []iosched.Class{
					iosched.PersistentRead, iosched.PersistentWrite,
					iosched.IntermediateRead, iosched.IntermediateWrite,
				} {
					for _, app := range []iosched.AppID{"A", "B", "A"} {
						req := &iosched.Request{AppIdx: c.Shares().Index(app), Class: class, Size: 1e6}
						req.Done = iosched.DoneFunc(func(_ *iosched.Request, lat float64) { done[req] = lat })
						if err := n.SubmitIO(req); err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
				}
			}
			eng.Run()

			for _, req := range reqs {
				lat, ok := done[req]
				if !ok {
					t.Fatalf("%d %v request never completed", req.AppIdx, req.Class)
				}
				for i, p := range probes {
					if got := p[req]; got == nil || *got != [3]int{1, 1, 1} {
						t.Errorf("probe %d saw %v for %d %v, want one arrive, dispatch and complete", i, got, req.AppIdx, req.Class)
					}
				}
				if got := observed[req]; len(got) != 1 || got[0] != lat {
					t.Errorf("observer saw latencies %v for %d %v, want [%v]", got, req.AppIdx, req.Class, lat)
				}
			}
		})
	}
}
