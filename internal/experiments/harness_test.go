package experiments

import (
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
)

// TestClusterRequestsAreNumbered pins what the harness's I/O cells
// index by: every request any scheduler of a cluster sees, under every
// policy and on both layouts, resolved its weight through the cluster's
// share tree, which numbers its app (AppIdx is never NoApp).
func TestClusterRequestsAreNumbered(t *testing.T) {
	scale := 0.02
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"native", Options{Policy: cluster.Native}},
		{"sfqd2-coordinated-network", Options{Policy: cluster.SFQD2, Coordinate: true, ScheduleNetwork: true}},
		{"cgweight", Options{Policy: cluster.CGWeight}},
		{"cgthrottle", Options{Policy: cluster.CGThrottle, ThrottleLimits: map[iosched.AppID]float64{"terasort": 50e6}}},
		{"reserve", Options{Policy: cluster.Reserve, ReservationDefault: 50e6}},
	} {
		for _, shards := range []int{0, 1} {
			opts := tc.opts
			opts.Scale, opts.Shards = scale, shards
			var seen, noIndex int
			probe := probeFunc(func(req *iosched.Request, _ iosched.ProbeState) {
				seen++
				if req.AppIdx == iosched.NoApp {
					noIndex++
				}
			})
			_, err := RunWithSetup(opts, []Entry{wordCount(scale, 4), teraSortContender(scale, 1)}, func(rt *mapreduce.Runtime) error {
				rt.Cluster().Instrument(func(int, int, string, iosched.Scheduler) iosched.Probe { return probe })
				return nil
			})
			if err != nil {
				t.Fatalf("%s, shards %d: %v", tc.name, shards, err)
			}
			if seen == 0 || noIndex > 0 {
				t.Errorf("%s, shards %d: %d of %d probed events carry NoApp", tc.name, shards, noIndex, seen)
			}
		}
	}
}

type probeFunc func(*iosched.Request, iosched.ProbeState)

func (f probeFunc) Observe(req *iosched.Request, st iosched.ProbeState) { f(req, st) }
