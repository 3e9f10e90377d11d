package iosched

import (
	"math"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// fakeCoord is a scriptable Coordinator.
type fakeCoord struct {
	other map[AppID]float64
}

func (f *fakeCoord) OtherService(app AppID, _ AppIdx) float64 { return f.other[app] }

func TestDSFQFirstArrivalNotDelayed(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	coord := &fakeCoord{other: map[AppID]float64{"A": 1e9}}
	s.SetCoordinator(coord)
	// Even with huge other-node service already recorded, the first
	// local arrival only snapshots it (DSFQ's initialization rule).
	r := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(r)
	if r.StartTag() != 0 {
		t.Fatalf("first arrival start tag = %v, want 0 (no retroactive delay)", r.StartTag())
	}
	eng.Run()
}

func TestDSFQDelayProportionalToOtherService(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	coord := &fakeCoord{other: map[AppID]float64{"A": 0}}
	s.SetCoordinator(coord)

	r1 := &Request{App: "A", Shares: flat(2), Class: PersistentRead, Size: 1e6}
	s.Submit(r1) // snapshot other=0
	// The app then receives 50e6 cost units elsewhere.
	coord.other["A"] = 50e6
	r2 := &Request{App: "A", Shares: flat(2), Class: PersistentRead, Size: 1e6}
	s.Submit(r2)
	// S(r2) = F(r1) + delta/weight = (1e6/2) + 50e6/2.
	want := 1e6/2 + 50e6/2
	if math.Abs(r2.StartTag()-want) > 1 {
		t.Fatalf("delayed start tag = %v, want %v", r2.StartTag(), want)
	}
	eng.Run()
}

func TestDSFQNoDelayWhenOtherServiceUnchanged(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	coord := &fakeCoord{other: map[AppID]float64{"A": 7e6}}
	s.SetCoordinator(coord)
	r1 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	r2 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(r1)
	s.Submit(r2)
	if got, want := r2.StartTag(), r1.FinishTag(); math.Abs(got-want) > 1 {
		t.Fatalf("unchanged other-service delayed the flow: S=%v, want %v", got, want)
	}
	eng.Run()
}

func TestDSFQDecreasedOtherServiceIgnored(t *testing.T) {
	// Broker totals are cumulative; an apparent decrease (stale
	// response ordering) must not produce a negative delay.
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	coord := &fakeCoord{other: map[AppID]float64{"A": 10e6}}
	s.SetCoordinator(coord)
	r1 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(r1)
	coord.other["A"] = 5e6 // stale, smaller
	r2 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(r2)
	if r2.StartTag() < r1.FinishTag()-1 {
		t.Fatalf("stale decrease produced a negative delay: %v < %v", r2.StartTag(), r1.FinishTag())
	}
	eng.Run()
}

func TestDSFQDelayedFlowLosesLocalPriority(t *testing.T) {
	// Two backlogged flows, equal weights; flow A has received lots of
	// service elsewhere, so B should win most of this device.
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	coord := &fakeCoord{other: map[AppID]float64{}}
	s.SetCoordinator(coord)

	// Simulate A's other-node service growing continuously at the
	// device's own rate.
	eng.ScheduleDaemon(0.1, func() {})
	var tick func()
	tick = func() {
		coord.other["A"] += 10e6 // 100 MB/s elsewhere
		eng.ScheduleDaemon(0.1, tick)
	}
	eng.ScheduleDaemon(0.1, tick)

	var a, b float64
	backlog(eng, s, "A", 1, PersistentRead, 1e6, 4, 30, &a)
	backlog(eng, s, "B", 1, PersistentRead, 1e6, 4, 30, &b)
	eng.RunUntil(30)
	// With equal weights and A consuming a full device elsewhere, B
	// should get the large majority here (total-service fairness).
	if b < 3*a {
		t.Fatalf("B/A local service = %.2f, want ≫1 (A is delayed)", b/a)
	}
	// A must not starve completely (work conservation when B idles is
	// separate; here both are backlogged so A still trickles).
	if a == 0 {
		t.Fatal("delayed flow fully starved")
	}
}

func TestSFQWithoutCoordinatorIgnoresDelay(t *testing.T) {
	eng := sim.NewEngine()
	dev := storage.NewDevice(eng, "d", flatSpec())
	s := mustSFQD(t, eng, dev, 1)
	r1 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	r2 := &Request{App: "A", Shares: flat(1), Class: PersistentRead, Size: 1e6}
	s.Submit(r1)
	s.Submit(r2)
	if got, want := r2.StartTag(), r1.FinishTag(); math.Abs(got-want) > 1 {
		t.Fatalf("no-sync SFQ produced a delay: %v vs %v", got, want)
	}
	eng.Run()
}
