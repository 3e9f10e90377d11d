package iosched

import (
	"math"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

func newReservation(t *testing.T, rates map[AppID]float64, def float64) (*sim.Engine, *Pacer, *storage.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s, err := NewReservation(eng, dev, rates, def)
	if err != nil {
		t.Fatalf("NewReservation: %v", err)
	}
	return eng, s, dev
}

func TestReservationPacesEachApp(t *testing.T) {
	eng, s, _ := newReservation(t, map[AppID]float64{"A": 20e6, "B": 10e6}, 0)
	var a, b float64
	backlog(eng, s, "A", 1, PersistentRead, 2e6, 4, 30, &a)
	backlog(eng, s, "B", 1, PersistentRead, 2e6, 4, 30, &b)
	eng.RunUntil(32)
	// Both apps should track their reserved rates, not the 100 MB/s
	// device. (Cost = size on the flat test device.)
	if rate := a / 30; math.Abs(rate-20e6)/20e6 > 0.2 {
		t.Errorf("A rate %.1f MB/s, want ≈20", rate/1e6)
	}
	if rate := b / 30; math.Abs(rate-10e6)/10e6 > 0.2 {
		t.Errorf("B rate %.1f MB/s, want ≈10", rate/1e6)
	}
}

func TestReservationStrictIsolation(t *testing.T) {
	// App A's service must be identical whether or not B floods the
	// scheduler — the definition of strict isolation.
	serve := func(withB bool) float64 {
		eng, s, _ := newReservation(t, map[AppID]float64{"A": 20e6, "B": 50e6}, 0)
		var a, b float64
		backlog(eng, s, "A", 1, PersistentRead, 2e6, 2, 30, &a)
		if withB {
			backlog(eng, s, "B", 1, PersistentWrite, 2e6, 16, 30, &b)
		}
		eng.RunUntil(32)
		return a
	}
	alone, contended := serve(false), serve(true)
	if math.Abs(alone-contended)/alone > 0.15 {
		t.Fatalf("A served %.1f MB alone vs %.1f MB contended; reservation leaked", alone/1e6, contended/1e6)
	}
}

func TestReservationNonWorkConserving(t *testing.T) {
	// Only A is active; the device idles even though B's reservation
	// is unused.
	eng, s, dev := newReservation(t, map[AppID]float64{"A": 10e6}, 0)
	var a float64
	backlog(eng, s, "A", 1, PersistentRead, 2e6, 4, 20, &a)
	eng.RunUntil(22)
	if rate := a / 20; rate > 12e6 {
		t.Fatalf("A got %.1f MB/s, above its 10 MB/s reservation (work conservation leaked)", rate/1e6)
	}
	// The 100 MB/s device is ~90% idle.
	if dev.BusyTime() > 6 {
		t.Fatalf("device busy %.1fs of 20s; should be mostly idle", dev.BusyTime())
	}
}

func TestReservationDefaultRate(t *testing.T) {
	eng, s, _ := newReservation(t, nil, 5e6)
	var a float64
	backlog(eng, s, "anyone", 1, PersistentRead, 1e6, 2, 10, &a)
	eng.RunUntil(12)
	if rate := a / 10; math.Abs(rate-5e6)/5e6 > 0.3 {
		t.Fatalf("default-rate app got %.1f MB/s, want ≈5", rate/1e6)
	}
}

func TestReservationUnknownAppRejected(t *testing.T) {
	_, s, _ := newReservation(t, map[AppID]float64{"A": 1e6}, 0)
	err := s.Submit(&Request{App: "ghost", Shares: flat(1), Class: PersistentRead, Size: 1e6})
	if err == nil {
		t.Fatal("unreserved app accepted with no default rate")
	}
	// A rejected request must leave no trace in the bookkeeping.
	if s.Queued() != 0 || s.InFlight() != 0 {
		t.Fatalf("rejected request left state: queued=%d inflight=%d", s.Queued(), s.InFlight())
	}
}

func TestReservationInvalidRateRejected(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	if _, err := NewReservation(eng, dev, map[AppID]float64{"A": 0}, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewReservation(eng, dev, nil, -1); err == nil {
		t.Fatal("negative default rate accepted")
	}
	for _, r := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewReservation(eng, dev, map[AppID]float64{"A": r}, 0); err == nil {
			t.Errorf("rate %g accepted", r)
		}
		if _, err := NewReservation(eng, dev, nil, r); err == nil {
			t.Errorf("default rate %g accepted", r)
		}
	}
}

func TestReservationAccountingAndIntrospection(t *testing.T) {
	eng, s, _ := newReservation(t, map[AppID]float64{"B": 1e6, "A": 1e6}, 0)
	s.Submit(&Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 0.5e6})
	eng.Run()
	if got := s.Accounting().Service("A").Bytes; got != 0.5e6 {
		t.Fatalf("accounted %v bytes", got)
	}
	if s.Name() != "reservation" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Queued() != 0 || s.InFlight() != 0 {
		t.Fatal("leftovers")
	}
}

func TestReservationFIFOWithinApp(t *testing.T) {
	eng, s, _ := newReservation(t, map[AppID]float64{"A": 2e6}, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(&Request{
			App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6,
			Done: func(any, float64) { order = append(order, i) },
		})
	}
	eng.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v, want FIFO", order)
		}
	}
}

func TestReservationObserver(t *testing.T) {
	eng, s, _ := newReservation(t, nil, 10e6)
	n := 0
	s.SetProbe(ProbeFunc(func(_ *Request, st ProbeState) {
		if st.Event == ProbeComplete {
			n++
		}
	}))
	for i := 0; i < 3; i++ {
		s.Submit(&Request{App: "A", Shares: flat(1), Class: IntermediateRead, Size: 1e6})
	}
	eng.Run()
	if n != 3 {
		t.Fatalf("observer saw %d", n)
	}
}
