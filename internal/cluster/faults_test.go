package cluster

import (
	"testing"

	"ibis/internal/faults"
	"ibis/internal/iosched"
)

// keepBusy keeps a closed-loop read backlog of app (its index in the
// cluster's share tree) on node n's HDFS scheduler until the horizon,
// tallying serviced bytes.
func keepBusy(eng interface {
	Now() float64
}, n *Node, app iosched.AppIdx, horizon float64, served *float64) {
	var issue func()
	issue = func() {
		n.SubmitIO(&iosched.Request{
			AppIdx: app, Class: iosched.PersistentRead, Size: 1e6,
			Done: iosched.DoneFunc(func(*iosched.Request, float64) {
				*served += 1e6
				if eng.Now() < horizon {
					issue()
				}
			}),
		})
	}
	for i := 0; i < 4; i++ {
		issue()
	}
}

// TestArmFaultsSchedulesRestarts checks the restart arm of the fault
// wiring: the injected restart reaches the right client and shows up
// in its health counters (wipe + re-register).
func TestArmFaultsSchedulesRestarts(t *testing.T) {
	eng, c := newCluster(t, Config{
		Nodes: 2, Policy: SFQD, Coordinate: true, CoordinationPeriod: 0.5,
		Faults: faults.New(faults.Spec{
			Restarts: map[string][]float64{"node0-hdfs": {1.5}},
		}),
	})
	var served float64
	keepBusy(eng, c.Nodes[0], c.Shares().Index("A"), 4, &served)
	eng.Schedule(5, func() {})
	eng.Run()

	for _, ref := range c.Clients() {
		h := ref.C.Health()
		wantRestarts := uint64(0)
		if ref.Node == 0 && ref.Dev == "hdfs" {
			wantRestarts = 1
		}
		if h.Restarts != wantRestarts {
			t.Errorf("node%d-%s: restarts = %d, want %d", ref.Node, ref.Dev, h.Restarts, wantRestarts)
		}
	}
	if h := c.CoordinationHealth(); h.Restarts != 1 || h.ReRegisters != 1 {
		t.Errorf("merged health restarts/reregisters = %d/%d, want 1/1", h.Restarts, h.ReRegisters)
	}
}

// TestArmFaultsDegradesDevice checks the device arm: capacity drops by
// the degrade factor inside the window and comes back after.
func TestArmFaultsDegradesDevice(t *testing.T) {
	eng, c := newCluster(t, Config{
		Nodes: 1, Policy: SFQD,
		Faults: faults.New(faults.Spec{
			DeviceDegrade: map[string][]faults.Window{"node0-hdfs": {{Start: 1, End: 2}}},
			DegradeFactor: 0.25,
		}),
	})
	var served float64
	keepBusy(eng, c.Nodes[0], c.Shares().Index("A"), 3, &served)
	var atStart, atEnd, atRecovered float64
	eng.ScheduleDaemon(1, func() { atStart = served })
	eng.ScheduleDaemon(2, func() { atEnd = served })
	eng.ScheduleDaemon(3, func() { atRecovered = served })
	eng.Schedule(3, func() {})
	eng.Run()

	degraded := atEnd - atStart
	healthy := atRecovered - atEnd
	if degraded <= 0 || healthy <= 0 {
		t.Fatalf("no service measured (degraded=%v healthy=%v)", degraded, healthy)
	}
	// Factor 0.25 with identical windows: the degraded second should
	// serve roughly a quarter of the healthy one.
	if ratio := degraded / healthy; ratio > 0.45 {
		t.Errorf("degraded/healthy service ratio = %.2f, want ≈0.25 (window not applied?)", ratio)
	}
}

// TestDetachNodeUnregistersClients: membership-service path — the
// detached node's clients leave the broker and stay gone.
func TestDetachNodeUnregistersClients(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2, Policy: SFQD, Coordinate: true, CoordinationPeriod: 0.5})
	var s0, s1 float64
	keepBusy(eng, c.Nodes[0], c.Shares().Index("A"), 4, &s0)
	keepBusy(eng, c.Nodes[1], c.Shares().Index("A"), 4, &s1)
	eng.Schedule(2, func() {
		c.DetachNode(1)
		if got := len(c.Partitions()[0].Broker().Schedulers()); got != 2 {
			t.Errorf("schedulers after detach = %d, want 2", got)
		}
	})
	eng.Schedule(5, func() {})
	eng.Run()
	for _, id := range c.Partitions()[0].Broker().Schedulers() {
		if id == "node1-hdfs" || id == "node1-local" {
			t.Errorf("detached client %s re-registered", id)
		}
	}
}

// TestDegradeObserverReportsNodeAndDevice: the audit hook sees degrade
// and recover transitions labeled with the right (node, dev) and in
// matched pairs when an outage blankets the cluster.
func TestDegradeObserverReportsNodeAndDevice(t *testing.T) {
	eng, c := newCluster(t, Config{
		Nodes: 2, Policy: SFQD, Coordinate: true, CoordinationPeriod: 0.5,
		Faults: faults.New(faults.Spec{Outages: []faults.Window{{Start: 1, End: 3}}}),
	})
	type key struct {
		node int
		dev  string
	}
	degrades, recovers := map[key]int{}, map[key]int{}
	c.SetDegradeObserver(
		func(node int, dev string, _ float64) { degrades[key{node, dev}]++ },
		func(node int, dev string, _ float64) { recovers[key{node, dev}]++ },
	)
	var s0, s1 float64
	keepBusy(eng, c.Nodes[0], c.Shares().Index("A"), 8, &s0)
	keepBusy(eng, c.Nodes[1], c.Shares().Index("A"), 8, &s1)
	eng.Schedule(9, func() {})
	eng.Run()

	for _, want := range []key{{0, "hdfs"}, {0, "local"}, {1, "hdfs"}, {1, "local"}} {
		if degrades[want] != 1 {
			t.Errorf("%+v: degrades = %d, want 1", want, degrades[want])
		}
		if recovers[want] != 1 {
			t.Errorf("%+v: recovers = %d, want 1", want, recovers[want])
		}
	}
	if h := c.CoordinationHealth(); h.Degradations != 4 || h.Recoveries != 4 {
		t.Errorf("merged degradations/recoveries = %d/%d, want 4/4", h.Degradations, h.Recoveries)
	}
}
