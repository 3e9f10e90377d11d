package cluster

import (
	"math"
	"testing"

	"ibis/internal/iosched"
)

func TestReservePolicyWiring(t *testing.T) {
	_, c := newCluster(t, Config{
		Nodes:  1,
		Policy: Reserve,
		ReservationRates: map[iosched.AppID]float64{
			"A": 10e6,
		},
		ReservationDefault: 5e6,
	})
	if got := c.Nodes[0].HDFSSched.Name(); got != "reservation" {
		t.Fatalf("HDFS scheduler = %q", got)
	}
	if got := c.Nodes[0].LocalSched.Name(); got != "reservation" {
		t.Fatalf("local scheduler = %q", got)
	}
	if Reserve.String() != "Reservation" {
		t.Fatalf("Policy string = %q", Reserve.String())
	}
}

func TestReservePolicyPacesIO(t *testing.T) {
	eng, c := newCluster(t, Config{
		Nodes:            1,
		Policy:           Reserve,
		ReservationRates: map[iosched.AppID]float64{"A": 10e6},
	})
	var served float64
	n := c.Nodes[0]
	var issue func()
	issue = func() {
		n.SubmitIO(&iosched.Request{
			AppIdx: c.Shares().Index("A"), Class: iosched.PersistentRead, Size: 2e6,
			Done: iosched.DoneFunc(func(*iosched.Request, float64) {
				served += 2e6
				if eng.Now() < 20 {
					issue()
				}
			}),
		})
	}
	issue()
	eng.RunUntil(22)
	// Cost includes per-op overhead, so the byte rate lands slightly
	// below the 10 MB/s cost-unit reservation.
	if rate := served / 20; rate > 11e6 || rate < 5e6 {
		t.Fatalf("reserved app rate %.1f MB/s, want ≈9-10", rate/1e6)
	}
}

func TestSendTaggedWithoutNetSchedEqualsSend(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2})
	var t1, t2 float64
	c.Nodes[0].Send(c.Nodes[1], 50e6, func() { t1 = eng.Now() })
	eng.Run()

	eng2, c2 := newCluster(t, Config{Nodes: 2})
	c2.Nodes[0].SendTagged(c2.Nodes[1], c2.Shares().Index("A"), 50e6, func() { t2 = eng2.Now() })
	eng2.Run()
	if math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("SendTagged without NetSched diverged: %v vs %v", t1, t2)
	}
}

func TestNetworkSchedulerWeightsTransfers(t *testing.T) {
	eng, c := newCluster(t, Config{
		Nodes:           2,
		ScheduleNetwork: true,
	})
	if c.Nodes[0].NetSched == nil {
		t.Fatal("NetSched missing with ScheduleNetwork=true")
	}
	src, dst := c.Nodes[0], c.Nodes[1]
	var hi, lo float64
	keep := func(app iosched.AppID, w float64, served *float64) {
		// Weights now come from the share tree, not the call site.
		if err := c.Shares().SetAppWeight(app, w); err != nil {
			t.Fatalf("SetAppWeight: %v", err)
		}
		idx := c.Shares().Index(app)
		var issue func()
		issue = func() {
			src.SendTagged(dst, idx, 2e6, func() {
				*served += 2e6
				if eng.Now() < 20 {
					issue()
				}
			})
		}
		// Each flow keeps several times the NIC scheduler's 128
		// dispatch slots outstanding, so both always wait in its queue
		// and the weights decide who dispatches next.
		for i := 0; i < 4*networkDepth; i++ {
			issue()
		}
	}
	keep("hi", 8, &hi)
	keep("lo", 1, &lo)
	eng.RunUntil(20)
	if ratio := hi / lo; math.Abs(ratio-8)/8 > 0.25 {
		t.Fatalf("NIC service ratio %.2f, want ≈8 (weighted fair)", ratio)
	}
}

func TestNetworkSchedulerOffByDefault(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 1})
	if c.Nodes[0].NetSched != nil {
		t.Fatal("NetSched present without ScheduleNetwork")
	}
}

func TestZeroByteSendTagged(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2, ScheduleNetwork: true})
	fired := false
	c.Nodes[0].SendTagged(c.Nodes[1], c.Shares().Index("A"), 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte tagged send never completed")
	}
}
