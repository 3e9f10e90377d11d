package experiments

import (
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// TestClosedLoopReturnsRejectedSubmit: a closed loop whose
// submit is rejected returns the error after the run, instead of
// silently running one backlog slot short or panicking, and the flows
// it could submit still run to the horizon.
func TestClosedLoopReturnsRejectedSubmit(t *testing.T) {
	tree := shares.NewTree()
	eng := sim.NewEngine()
	s, err := iosched.NewSFQD(eng, storage.NewDevice(eng, "hdd", storage.HDDSpec()), tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := newClosedLoop(eng, 5)
	var good, bad tally
	l.keep(s.Submit, &good, 2, iosched.Request{AppIdx: tree.Index("good"), Class: iosched.PersistentRead, Size: 2e6})
	// No app index: the scheduler rejects every submit.
	l.keep(s.Submit, &bad, 2, iosched.Request{AppIdx: iosched.NoApp, Class: iosched.PersistentRead, Size: 2e6})
	if err := l.run(); err == nil {
		t.Fatal("rejected submits were dropped silently")
	}
	if good.n == 0 || good.bytes != float64(good.n)*2e6 || bad.n != 0 {
		t.Fatalf("good flow completed %d (%g bytes), bad flow %d; want good > 0 at 2 MB each, bad 0", good.n, good.bytes, bad.n)
	}
	if eng.Now() < 5 {
		t.Fatalf("run stopped at t=%g, before the horizon", eng.Now())
	}
}
