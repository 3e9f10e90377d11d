package experiments

import (
	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// closedLoop is the microbenchmarks' backlog generator: it keeps records
// outstanding until a horizon, resubmitting each as it completes
// through one cached method value, so it allocates only its records.
type closedLoop struct {
	eng     *sim.Engine
	horizon float64
	done    sim.DoneFunc
	err     error // first rejected submit or failed control action
}

// tally is the service one flow's records have received.
type tally struct {
	bytes, latency float64 // latency sums the completions' total latency
	n              int
}

// loopReq is one circulating record, its target and its flow's tally.
type loopReq struct {
	req    iosched.Request
	submit func(*iosched.Request) error
	tally  *tally
}

func newClosedLoop(eng *sim.Engine, horizon float64) *closedLoop {
	l := &closedLoop{eng: eng, horizon: horizon}
	l.done = l.complete
	return l
}

// keep puts depth copies of req in circulation through submit.
func (l *closedLoop) keep(submit func(*iosched.Request) error, t *tally, depth int, req iosched.Request) {
	for i := 0; i < depth; i++ {
		r := &loopReq{req: req, submit: submit, tally: t}
		r.req.Done, r.req.DoneArg = l.done, r
		l.fail(submit(&r.req))
	}
}

// keepUneven backlogs the uneven-presence microbenchmark: app "wide"
// (weight w) on every node of cl, "narrow" (weight 1) on a quarter of
// them. Both resolve through cl's share tree, "narrow" by binding at
// weight 1 on its first request.
func (l *closedLoop) keepUneven(cl *cluster.Cluster, w float64) (wide, narrow *tally) {
	wide, narrow = new(tally), new(tally)
	l.fail(cl.Shares().Bind("wide", "", w))
	for i, n := range cl.Nodes {
		l.keep(n.SubmitIO, wide, 4, iosched.Request{App: "wide", Class: iosched.PersistentRead, Size: 2e6})
		if i < max(len(cl.Nodes)/4, 1) {
			l.keep(n.SubmitIO, narrow, 4, iosched.Request{App: "narrow", Class: iosched.PersistentRead, Size: 2e6})
		}
	}
	return wide, narrow
}

func (l *closedLoop) complete(arg any, lat float64) {
	r := arg.(*loopReq)
	r.tally.bytes += r.req.Size
	r.tally.latency += lat
	r.tally.n++
	if l.eng.Now() < l.horizon {
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
