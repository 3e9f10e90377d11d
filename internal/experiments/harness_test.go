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
			var seen, unnumbered int
			probe := probeFunc(func(req *iosched.Request, _ iosched.ProbeState) {
				seen++
				if req.AppIdx == iosched.NoApp {
					unnumbered++
				}
			})
			_, err := RunWithSetup(opts, []Entry{wordCount(scale, 4), teraSortContender(scale, 1)}, func(rt *mapreduce.Runtime) error {
				rt.Cluster().Instrument(func(int, int, string, iosched.Scheduler) iosched.Probe { return probe })
				return nil
			})
			if err != nil {
				t.Fatalf("%s, shards %d: %v", tc.name, shards, err)
			}
			if seen == 0 || unnumbered > 0 {
				t.Errorf("%s, shards %d: %d of %d probed events carry NoApp", tc.name, shards, unnumbered, seen)
			}
		}
	}
}

type probeFunc func(*iosched.Request, iosched.ProbeState)

func (f probeFunc) Observe(req *iosched.Request, st iosched.ProbeState) { f(req, st) }

// TestIOCellRefusesUnnumberedApps pins the guard behind the cells'
// index: a completion whose app has no share-tree index is not booked
// under some other app's number but marks the cell, which fails the run.
func TestIOCellRefusesUnnumberedApps(t *testing.T) {
	c := newIOCell(false)
	c.Observe(&iosched.Request{App: "fixed", AppIdx: iosched.NoApp, Size: 1e6}, iosched.ProbeState{Event: iosched.ProbeComplete, Latency: 0.01})
	if !c.unnumbered || c.totalBytes != 0 || len(c.apps) != 0 {
		t.Fatalf("NoApp completion: unnumbered %v, %g bytes booked, %d apps", c.unnumbered, c.totalBytes, len(c.apps))
	}
}
