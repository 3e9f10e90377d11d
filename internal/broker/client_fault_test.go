package broker

import (
	"slices"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// mapReporter is a hand-driven Reporter.
type mapReporter map[iosched.AppID]float64

func (m mapReporter) CostVector() []iosched.AppCost { return costs(m) }

// hookTransport scripts every leg of the protocol. A scripted rtt > 0
// delivers the response that much later on eng; a failure, or a
// response without delay, arrives inside the call.
type hookTransport struct {
	eng          *sim.Engine
	exchange     func(id string, vec map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error)
	register     func(id string) (float64, error)
	unregistered []string
}

// Exchange adapts the scripted per-app map into a Response, deriving
// the sorted app list and the implicit singleton tenant totals the
// real broker would send.
func (h *hookTransport) Exchange(id string, vec []iosched.AppCost, done func(Response, error)) {
	m, rtt, err := h.exchange(id, byName(vec))
	if err != nil {
		done(Response{}, err)
		return
	}
	resp := Response{Apps: make([]iosched.AppID, 0, len(m)), Tenants: make(map[string]float64, len(m))}
	for a, v := range m {
		resp.Apps = append(resp.Apps, a)
		resp.Tenants[shares.ImplicitTenant(a)] = v
	}
	slices.Sort(resp.Apps)
	h.reply(rtt, func() { done(resp, nil) })
}

func (h *hookTransport) Register(id string, done func(error)) {
	if h.register == nil {
		done(nil)
		return
	}
	rtt, err := h.register(id)
	if err != nil {
		done(err)
		return
	}
	h.reply(rtt, func() { done(nil) })
}

func (h *hookTransport) reply(rtt float64, fn func()) {
	if rtt <= 0 {
		fn()
		return
	}
	h.eng.ScheduleDaemon(rtt, fn)
}

func (h *hookTransport) Unregister(id string) { h.unregistered = append(h.unregistered, id) }

// faultyClient builds a client on a scripted transport with a 1 s
// period and no jitter-relevant knobs changed.
func faultyClient(eng *sim.Engine, tr Transport, rep Reporter) *Client {
	return NewClient(eng, "n0", rep, ClientOptions{Transport: tr, Period: 1})
}

func TestClientRetriesAndRecoversWithinRound(t *testing.T) {
	eng := sim.NewEngine()
	rep := mapReporter{"a": 10}
	calls := 0
	tr := &hookTransport{exchange: func(id string, vec map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
		calls++
		if calls < 3 {
			return nil, 0, ErrUnavailable
		}
		return map[iosched.AppID]float64{"a": 25}, 0, nil
	}}
	c := faultyClient(eng, tr, rep)
	eng.Schedule(1.5, func() {}) // keep the sim alive past the first round
	eng.RunUntil(1.5)

	if c.State() != StateHealthy {
		t.Fatalf("state = %v, want healthy", c.State())
	}
	if got := c.OtherService("a", iosched.NoApp); got != 15 {
		t.Errorf("OtherService = %g, want 15", got)
	}
	h := c.Health()
	if h.Failures != 2 || h.Retries != 2 || h.Successes != 1 {
		t.Errorf("health = %+v, want 2 failures, 2 retries, 1 success", h)
	}
	if h.Degradations != 0 {
		t.Errorf("degraded on a sub-period failure stretch: %+v", h)
	}
}

func TestClientBackoffIsExponentialAndBounded(t *testing.T) {
	eng := sim.NewEngine()
	c := NewClient(eng, "n0", mapReporter{}, ClientOptions{
		Transport: &hookTransport{exchange: func(string, map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
			return nil, 0, ErrUnavailable
		}},
		Period: 1,
	})
	// Backoffs: 0.05, 0.1, 0.2, then capped at 0.25, each plus up to
	// 25% jitter.
	for attempt, want := range map[int]float64{1: 0.05, 2: 0.1, 3: 0.2, 4: 0.25, 5: 0.25} {
		got := c.backoff(attempt)
		if got < want || got > want*1.25 {
			t.Errorf("backoff(%d) = %g, want in [%g, %g]", attempt, got, want, want*1.25)
		}
	}
}

func TestClientDegradesAfterOnePeriodAndSuspendsScheduler(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d0", storage.Spec{
		Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
		Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
	})
	sfq := sfqd(t, eng, dev, shares.NewTree(), 2)
	down := true
	tr := &hookTransport{exchange: func(id string, vec map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
		if down {
			return nil, 0, ErrUnavailable
		}
		return map[iosched.AppID]float64{}, 0, nil
	}}
	c := NewClient(eng, "n0", sfq.Accounting(), ClientOptions{Transport: tr, Period: 1})
	c.BindScheduler(sfq)
	sfq.SetCoordinator(c)

	var degradedAt, recoveredAt float64 = -1, -1
	c.SetOnDegrade(func(tm float64) { degradedAt = tm })
	c.SetOnRecover(func(tm float64) { recoveredAt = tm })

	eng.Schedule(10, func() {})
	eng.RunUntil(2.5)
	if c.State() != StateDegraded {
		t.Fatalf("state after 2.5s of outage = %v, want degraded", c.State())
	}
	if !sfq.CoordinationSuspended() {
		t.Fatal("scheduler not suspended on degradation")
	}
	if degradedAt < 2-1e-9 || degradedAt > 2.5 {
		t.Errorf("degraded at %g, want ≈2 (first failure at 1 + DegradeAfter 1)", degradedAt)
	}

	down = false
	eng.RunUntil(4.5)
	if c.State() != StateHealthy {
		t.Fatalf("state after recovery = %v, want healthy", c.State())
	}
	if sfq.CoordinationSuspended() {
		t.Fatal("scheduler still suspended after recovery")
	}
	if recoveredAt < 3-1e-9 {
		t.Errorf("recovered at %g, want ≥3", recoveredAt)
	}
	h := c.Health()
	if h.Degradations != 1 || h.Recoveries != 1 {
		t.Errorf("health = %+v, want 1 degradation + 1 recovery", h)
	}
	if h.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %g, want > 0", h.DegradedTime)
	}
}

func TestClientTimeoutThenStaleResponseDropped(t *testing.T) {
	eng := sim.NewEngine()
	slow := true
	tr := &hookTransport{eng: eng, exchange: func(id string, vec map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
		if slow {
			slow = false
			// Response arrives after the 0.25 s default timeout.
			return map[iosched.AppID]float64{"a": 999}, 0.6, nil
		}
		return map[iosched.AppID]float64{"a": 5}, 0, nil
	}}
	c := faultyClient(eng, tr, mapReporter{"a": 0})
	eng.Schedule(5, func() {})
	eng.RunUntil(3)

	// The late 999-total response must never have been applied: the
	// timed-out attempt was abandoned and the retry's fresh response
	// won the race.
	if got := c.OtherService("a", iosched.NoApp); got != 5 {
		t.Errorf("OtherService = %g, want 5 (late response applied?)", got)
	}
	h := c.Health()
	if h.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", h.Timeouts)
	}
	if h.StaleDrops != 1 {
		t.Errorf("stale drops = %d, want 1", h.StaleDrops)
	}
}

func TestClientSerializesRounds(t *testing.T) {
	eng := sim.NewEngine()
	var calls int
	tr := &hookTransport{eng: eng, exchange: func(id string, vec map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
		calls++
		if calls == 1 {
			return map[iosched.AppID]float64{"a": 100}, 0.2, nil
		}
		return map[iosched.AppID]float64{"a": 200}, 0.01, nil
	}}
	c := faultyClient(eng, tr, mapReporter{"a": 0})
	// ExchangeNow while round 1's response is still in flight must not
	// start a concurrent round — responses stay ordered by design.
	eng.Schedule(1.05, func() { c.ExchangeNow() })
	eng.Schedule(1.5, func() {
		if calls != 1 {
			t.Errorf("ExchangeNow during in-flight round issued a concurrent exchange (calls=%d)", calls)
		}
		if got := c.OtherService("a", iosched.NoApp); got != 100 {
			t.Errorf("OtherService = %g at t=1.5, want 100", got)
		}
	})
	eng.Schedule(3, func() {})
	eng.RunUntil(3)

	if calls != 2 {
		t.Errorf("calls = %d, want 2 (t=1 and t=2 rounds)", calls)
	}
	if got := c.OtherService("a", iosched.NoApp); got != 200 {
		t.Errorf("OtherService = %g, want 200 after round 2", got)
	}
	if c.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", c.Rounds())
	}
}

func TestClientRestartWipesViewAndReRegisters(t *testing.T) {
	eng := sim.NewEngine()
	b := New()
	rep := mapReporter{"a": 10}
	other := NewClient(eng, "n1", mapReporter{"a": 40}, ClientOptions{Transport: directTransport{b}, Period: 1})
	_ = other
	c := NewClient(eng, "n0", rep, ClientOptions{Transport: directTransport{b}, Period: 1})
	eng.Schedule(10, func() {})
	eng.RunUntil(1.5)
	if got := c.OtherService("a", iosched.NoApp); got != 40 {
		t.Fatalf("pre-restart OtherService = %g, want 40", got)
	}

	c.Restart()
	// The in-memory view is rebuilt from the broker by the re-register
	// handshake chaining into an exchange — and because vectors are
	// cumulative and the broker kept n0's previous report, the full
	// re-report applies as a no-op delta: totals are NOT double
	// counted.
	if got := c.OtherService("a", iosched.NoApp); got != 40 {
		t.Errorf("post-restart OtherService = %g, want 40 (idempotent resync)", got)
	}
	if got := b.Total("a"); got != 50 {
		t.Errorf("broker total = %g, want 50 (no double counting)", got)
	}
	h := c.Health()
	if h.Restarts != 1 || h.ReRegisters != 1 {
		t.Errorf("health = %+v, want 1 restart + 1 re-register", h)
	}
	if h.Degradations != 1 {
		t.Errorf("restart must pass through degraded: %+v", h)
	}
	if c.State() != StateHealthy {
		t.Errorf("state = %v, want healthy after successful resync", c.State())
	}
}

func TestClientRestartDuringOutageStaysDegraded(t *testing.T) {
	eng := sim.NewEngine()
	tr := &hookTransport{
		exchange: func(string, map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
			return nil, 0, ErrUnavailable
		},
		register: func(string) (float64, error) { return 0, ErrUnavailable },
	}
	c := faultyClient(eng, tr, mapReporter{"a": 1})
	eng.Schedule(2, func() { c.Restart() })
	eng.Schedule(6, func() {})
	eng.RunUntil(6)
	if c.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded while registration keeps failing", c.State())
	}
	h := c.Health()
	if h.ReRegisters != 0 {
		t.Errorf("re-registered through a dead transport: %+v", h)
	}
	if h.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", h.Restarts)
	}
}

func TestClientDetachUnregistersAndGoesSilent(t *testing.T) {
	eng := sim.NewEngine()
	calls := 0
	tr := &hookTransport{exchange: func(string, map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
		calls++
		return map[iosched.AppID]float64{}, 0, nil
	}}
	c := faultyClient(eng, tr, mapReporter{"a": 1})
	eng.Schedule(2.5, func() { c.Detach() })
	eng.Schedule(10, func() {})
	eng.RunUntil(10)

	if !c.Detached() {
		t.Fatal("client not detached")
	}
	if calls != 2 {
		t.Errorf("exchanges after detach: %d calls total, want 2 (t=1, t=2)", calls)
	}
	if len(tr.unregistered) != 1 || tr.unregistered[0] != "n0" {
		t.Errorf("unregistered = %v, want [n0]", tr.unregistered)
	}
	// Idempotent.
	c.Detach()
	if len(tr.unregistered) != 1 {
		t.Errorf("double detach unregistered twice: %v", tr.unregistered)
	}
}

func TestBrokerUnregisterWithdrawsServiceAndPrunes(t *testing.T) {
	b := New()
	b.Exchange("n0", costs(map[iosched.AppID]float64{"a": 10, "b": 4}))
	b.Exchange("n1", costs(map[iosched.AppID]float64{"a": 6}))
	b.Unregister("n0")
	if got := b.Total("a"); got != 6 {
		t.Errorf("total a = %g, want 6 after n0 withdrew", got)
	}
	if got := b.Total("b"); got != 0 {
		t.Errorf("total b = %g, want 0 (pruned: no live report backs it)", got)
	}
	if apps := b.Apps(); len(apps) != 1 || apps[0] != "a" {
		t.Errorf("apps = %v, want [a]", apps)
	}
	// Unregistering an unknown scheduler is a no-op.
	b.Unregister("ghost")
	if got := b.Total("a"); got != 6 {
		t.Errorf("total a = %g after ghost unregister, want 6", got)
	}
}

func TestBrokerExchangeReturnsDefensiveCopy(t *testing.T) {
	b := New()
	resp := b.Exchange("n0", costs(map[iosched.AppID]float64{"a": 10}))
	resp.Apps[0] = "z" // mutate the response
	resp.Tenants["~a"] = 1e12
	if got := b.Total("a"); got != 10 {
		t.Errorf("total mutated through response: %g, want 10", got)
	}
	resp2 := b.Exchange("n1", costs(map[iosched.AppID]float64{"a": 5}))
	if got := resp2.Tenants["~a"]; got != 15 {
		t.Errorf("second response = %g, want 15", got)
	}
}

func TestBrokerRetireBlocksResurrection(t *testing.T) {
	b := New()
	b.Exchange("n0", costs(map[iosched.AppID]float64{"a": 10, "live": 1}))
	b.Retire("a")
	// The live totals are pruned (the app no longer appears in Apps or
	// in exchanges) but the final total stays observable as a tombstone.
	if got := b.Total("a"); got != 10 {
		t.Fatalf("retired tombstone total = %g, want 10", got)
	}
	for _, app := range b.Apps() {
		if app == "a" {
			t.Error("retired app still listed in Apps()")
		}
	}
	// A straggler report with the app's full cumulative value must not
	// resurrect it — local accounting never forgets an app.
	resp := b.Exchange("n0", costs(map[iosched.AppID]float64{"a": 12, "live": 2}))
	if slices.Contains(resp.Apps, "a") {
		t.Error("retired app present in exchange response")
	}
	if got := b.Total("a"); got != 10 {
		t.Errorf("retired app resurrected: total = %g, want tombstone 10", got)
	}
	if got := b.Total("live"); got != 2 {
		t.Errorf("live app total = %g, want 2", got)
	}

	// Revive: the next full cumulative report re-adds the service.
	b.Revive("a")
	b.Exchange("n0", costs(map[iosched.AppID]float64{"a": 12, "live": 2}))
	if got := b.Total("a"); got != 12 {
		t.Errorf("revived total = %g, want 12", got)
	}
}

func TestBrokerSchedulersSorted(t *testing.T) {
	b := New()
	b.Register("n2")
	b.Register("n0")
	b.Register("n1")
	got := b.Schedulers()
	want := []string{"n0", "n1", "n2"}
	if len(got) != len(want) {
		t.Fatalf("schedulers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedulers = %v, want %v", got, want)
		}
	}
}

func TestClientStateStrings(t *testing.T) {
	for s, want := range map[ClientState]string{
		StateHealthy:   "healthy",
		StateRetrying:  "retrying",
		StateDegraded:  "degraded",
		ClientState(9): "ClientState(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := retryPolicyFor(2)
	if p.maxRetries != 3 || p.baseBackoff != 0.1 || p.maxBackoff != 0.5 || p.jitterFrac != 0.25 || p.timeout != 0.5 || p.degradeAfter != 2 {
		t.Errorf("policy for a 2 s period = %+v", p)
	}
}

// delayedTransport delivers every response rtt seconds after the send,
// the shape of a transport whose broker lives on another shard.
type delayedTransport struct {
	eng          *sim.Engine
	b            *Broker
	rtt          float64
	unregistered []string
}

func (d *delayedTransport) Exchange(id string, vec []iosched.AppCost, done func(Response, error)) {
	d.eng.ScheduleDaemon(d.rtt, func() { done(d.b.Exchange(id, vec), nil) })
}

func (d *delayedTransport) Register(id string, done func(error)) {
	d.eng.ScheduleDaemon(d.rtt, func() {
		d.b.Register(id)
		done(nil)
	})
}

func (d *delayedTransport) Unregister(id string) {
	d.unregistered = append(d.unregistered, id)
	d.b.Unregister(id)
}

// TestClientOnDelayedTransport: a transport none of whose responses
// arrive inside the call carries the whole client lifecycle — periodic
// exchanges, the post-restart re-register handshake, and detach.
func TestClientOnDelayedTransport(t *testing.T) {
	eng := sim.NewEngine()
	b := New()
	tr := &delayedTransport{eng: eng, b: b, rtt: 0.01}
	c := NewClient(eng, "n0", mapReporter{"a": 10}, ClientOptions{Transport: tr, Period: 1})
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

// TestClientTimeoutArmedOnlyWhileOutstanding pins the timeout rule: a
// response inside the call arms no timer, and a delayed response
// cancels the timer its send armed, so no timeout event ever fires on
// a healthy transport.
func TestClientTimeoutArmedOnlyWhileOutstanding(t *testing.T) {
	for _, rtt := range []float64{0, 0.1} {
		eng := sim.NewEngine()
		tr := &hookTransport{eng: eng, exchange: func(string, map[iosched.AppID]float64) (map[iosched.AppID]float64, float64, error) {
			return map[iosched.AppID]float64{}, rtt, nil
		}}
		c := faultyClient(eng, tr, mapReporter{"a": 1})
		eng.Schedule(10.5, func() {})
		eng.RunUntil(10.5)

		// Ten ticks, the keep-alive, and one delivery per delayed round.
		want := uint64(11)
		if rtt > 0 {
			want += 10
		}
		if eng.Fired() != want {
			t.Errorf("rtt %g: fired %d events, want %d", rtt, eng.Fired(), want)
		}
		if c.Rounds() != 10 || c.Health().Timeouts != 0 {
			t.Errorf("rtt %g: rounds = %d, health %+v; want 10 rounds, no timeouts", rtt, c.Rounds(), c.Health())
		}
		if eng.Pending() != 1 {
			t.Errorf("rtt %g: %d events pending, want 1 (the next tick)", rtt, eng.Pending())
		}
	}
}
