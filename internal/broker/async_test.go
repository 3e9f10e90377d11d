package broker

import (
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// asyncOnly is a transport with no synchronous methods: each leg is a
// delayed event on the client's engine, the shape of a cross-shard
// message transport.
type asyncOnly struct {
	eng          *sim.Engine
	b            *Broker
	rtt          float64
	unregistered []string
}

func (a *asyncOnly) ExchangeAsync(id string, vec map[iosched.AppID]float64, done func(Response, error)) {
	a.eng.ScheduleDaemon(a.rtt, func() { done(a.b.Exchange(id, vec), nil) })
}

func (a *asyncOnly) RegisterAsync(id string, done func(error)) {
	a.eng.ScheduleDaemon(a.rtt, func() {
		a.b.Register(id)
		done(nil)
	})
}

func (a *asyncOnly) Unregister(id string) {
	a.unregistered = append(a.unregistered, id)
	a.b.Unregister(id)
}

// TestClientOnAsyncOnlyTransport: an endpoint implementing only the
// async protocol carries the whole client lifecycle — periodic
// exchanges, the post-restart re-register handshake, and detach.
func TestClientOnAsyncOnlyTransport(t *testing.T) {
	eng := sim.NewEngine()
	b := New()
	tr := &asyncOnly{eng: eng, b: b, rtt: 0.01}
	c := NewClientWithOptions(eng, "n0", mapReporter{"a": 10}, ClientOptions{Transport: tr, Period: 1})
	eng.Schedule(1.5, c.Restart)
	eng.Schedule(2.5, func() {}) // keep the run alive past the second tick
	eng.Run()

	h := c.Health()
	if h.ReRegisters != 1 {
		t.Fatalf("re-registers = %d, want 1 (health %+v)", h.ReRegisters, h)
	}
	// Ticks at 1 and 2 plus the exchange chained after re-registering.
	if c.Rounds() != 3 || c.State() != StateHealthy {
		t.Fatalf("rounds = %d state = %v, want 3 healthy (health %+v)", c.Rounds(), c.State(), h)
	}
	if got := b.Total("a"); got != 10 {
		t.Fatalf("broker total = %v, want 10", got)
	}
	c.Detach()
	if len(tr.unregistered) != 1 || tr.unregistered[0] != "n0" {
		t.Fatalf("unregistered = %v, want [n0]", tr.unregistered)
	}
}
