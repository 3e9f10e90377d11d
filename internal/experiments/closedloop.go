package experiments

import (
	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// closedLoop is the microbenchmarks' backlog generator: it keeps records
// outstanding until a horizon, each record its own completion that
// resubmits it, so it allocates only its records.
type closedLoop struct {
	eng     *sim.Engine
	horizon float64
	err     error // first rejected submit or failed control action
}

// tally is the service one flow's records have received.
type tally struct {
	bytes, latency float64 // latency sums the completions' total latency
	n              int
}

// loopReq is one circulating record, its target and its flow's tally.
// It is its record's completion.
type loopReq struct {
	req    iosched.Request
	loop   *closedLoop
	submit func(*iosched.Request) error
	tally  *tally
}

func newClosedLoop(eng *sim.Engine, horizon float64) *closedLoop {
	return &closedLoop{eng: eng, horizon: horizon}
}

// keep puts depth copies of req in circulation through submit.
func (l *closedLoop) keep(submit func(*iosched.Request) error, t *tally, depth int, req iosched.Request) {
	for i := 0; i < depth; i++ {
		r := &loopReq{req: req, loop: l, submit: submit, tally: t}
		r.req.Done = r
		l.fail(submit(&r.req))
	}
}

// keepUneven backlogs the uneven-presence microbenchmark: app "wide"
// (weight w) on every node of cl, "narrow" (weight 1) on a quarter of
// them. Both resolve through cl's share tree, "narrow" by binding at
// weight 1 where node 0 first keeps it, after node 0's "wide" records.
func (l *closedLoop) keepUneven(cl *cluster.Cluster, w float64) (wide, narrow *tally) {
	wide, narrow = new(tally), new(tally)
	tree := cl.Shares()
	l.fail(tree.Bind("wide", "", w))
	wideIdx := tree.Index("wide")
	for i, n := range cl.Nodes {
		l.keep(n.SubmitIO, wide, 4, iosched.Request{AppIdx: wideIdx, Class: iosched.PersistentRead, Size: 2e6})
		if i < max(len(cl.Nodes)/4, 1) {
			l.keep(n.SubmitIO, narrow, 4, iosched.Request{AppIdx: tree.Index("narrow"), Class: iosched.PersistentRead, Size: 2e6})
		}
	}
	return wide, narrow
}

// Complete implements iosched.Done: it tallies the completion and
// resubmits the record until the horizon.
func (r *loopReq) Complete(_ *iosched.Request, lat float64) {
	r.tally.bytes += r.req.Size
	r.tally.latency += lat
	r.tally.n++
	if l := r.loop; l.eng.Now() < l.horizon {
		l.fail(r.submit(&r.req))
	}
}

// fail keeps the loop's first error; a rejected record leaves the loop.
func (l *closedLoop) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// run drives the engine to the horizon and returns the first error.
func (l *closedLoop) run() error {
	l.eng.RunUntil(l.horizon)
	return l.err
}
