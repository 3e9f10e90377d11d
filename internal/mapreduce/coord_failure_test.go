package mapreduce

import (
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// newCoordHarness is newHarness with the coordination plane on: DSFQ
// clients exchange with the broker every 0.5 s.
func newCoordHarness(t *testing.T, nodes int) *testHarness {
	t.Helper()
	eng := sim.NewEngine()
	spec := storage.Spec{
		Name: "fastflat", ReadBW: 200e6, WriteBW: 200e6,
		PerOpOverhead: 0.1e6,
		Curve:         []float64{0.7, 0.85, 1, 1}, CurveDecay: 0.99, MinCurve: 0.5,
	}
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:              nodes,
		CoresPerNode:       4,
		MemGBPerNode:       24,
		HDFSDisk:           spec,
		LocalDisk:          spec,
		Policy:             cluster.SFQD,
		Coordinate:         true,
		CoordinationPeriod: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nn := dfs.NewNamenode(dfs.Config{Nodes: nodes, BlockSize: 32e6, Replication: 2, Seed: 5})
	rt := NewRuntime(eng, cl, nn, Config{ChunkBytes: 4e6})
	return &testHarness{eng: eng, cl: cl, nn: nn, rt: rt}
}

// TestFailNodeDetachesBrokerClients is the regression test for ghost
// coordination vectors: killing a node must unregister its two broker
// clients, withdraw their reported service, and stop their exchanges —
// otherwise survivors are delayed against a dead node's frozen totals
// forever.
func TestFailNodeDetachesBrokerClients(t *testing.T) {
	h := newCoordHarness(t, 4)
	job, err := h.rt.Submit(failureSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}

	registered := func(id string) bool {
		for _, s := range h.cl.Partitions()[0].Broker().Schedulers() {
			if s == id {
				return true
			}
		}
		return false
	}

	h.eng.Schedule(0.9, func() {
		if !registered("node2-hdfs") || !registered("node2-local") {
			t.Fatalf("node 2's clients never registered: %v", h.cl.Partitions()[0].Broker().Schedulers())
		}
	})
	h.eng.Schedule(1, func() { h.rt.FailNode(2) })
	h.eng.Schedule(1.01, func() {
		for _, id := range []string{"node2-hdfs", "node2-local"} {
			if registered(id) {
				t.Errorf("dead node's client %s still registered: %v", id, h.cl.Partitions()[0].Broker().Schedulers())
			}
		}
		if got := len(h.cl.Partitions()[0].Broker().Schedulers()); got != 6 {
			t.Errorf("registered schedulers = %d, want 6 (3 live nodes × 2)", got)
		}
	})
	h.eng.Run()

	if !job.Done() {
		t.Fatalf("job did not survive the failure: maps %d/%d reduces %d/%d",
			job.MapsDone(), job.NumMaps(), job.ReducesDone(), job.NumReduces())
	}
	// The detached clients must have gone silent: no exchange may have
	// re-registered them after the failure.
	for _, id := range []string{"node2-hdfs", "node2-local"} {
		if registered(id) {
			t.Errorf("dead node's client %s resurrected by a late exchange", id)
		}
	}
	// Survivors keep coordinating.
	health := h.cl.CoordinationHealth()
	if health.Successes == 0 {
		t.Error("no successful coordination exchanges recorded")
	}
}

// TestJobCompletionRetiresApp checks the broker-hygiene satellite: once
// every job of an app finishes, the app's vector is withdrawn from the
// broker so totals cannot pin delay functions of future apps.
func TestJobCompletionRetiresApp(t *testing.T) {
	h := newCoordHarness(t, 4)
	job, err := h.rt.Submit(failureSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
	if !h.cl.Partitions()[0].Broker().Retired(job.App) {
		t.Error("finished app was not retired at the broker")
	}
	for _, app := range h.cl.Partitions()[0].Broker().Apps() {
		if app == job.App {
			t.Error("retired app still listed among live broker apps")
		}
	}
	// The final total stays observable as a tombstone — retirement prunes
	// the live vector, it does not erase history.
	if got := h.cl.Partitions()[0].Broker().Total(job.App); got <= 0 {
		t.Errorf("tombstoned total = %v, want > 0", got)
	}
}
