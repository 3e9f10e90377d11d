package cluster

import (
	"math"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

func hollowSpec() storage.Spec {
	return storage.Spec{
		Name:          "flat",
		ReadBW:        100e6,
		WriteBW:       100e6,
		Curve:         []float64{1},
		CurveDecay:    1,
		MinCurve:      1,
		PerOpOverhead: 0,
	}
}

func TestHollowNodeShape(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Nodes:    4,
		HDFSDisk: hollowSpec(),
		Policy:   SFQD,
		Hollow:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.HDFS == nil || n.HDFSSched == nil {
			t.Fatalf("node %d missing HDFS device or scheduler", n.Index)
		}
		if n.Local != nil || n.LocalSched != nil || n.NetSched != nil {
			t.Fatalf("node %d carries non-hollow state", n.Index)
		}
		if n.nicOut != nil || n.nicIn != nil {
			t.Fatalf("node %d has NICs", n.Index)
		}
	}
}

func TestHollowSubmitIO(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Nodes: 1, HDFSDisk: hollowSpec(), Policy: SFQD, Hollow: true})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	done := 0
	req := &iosched.Request{
		App:   "a",
		Class: iosched.PersistentRead,
		Size:  1e6,
		Done:  func(any, float64) { done++ },
	}
	if err := n.SubmitIO(req); err != nil {
		t.Fatalf("persistent submit rejected: %v", err)
	}
	// Non-persistent classes have no device on a hollow node.
	bad := &iosched.Request{App: "a", Class: iosched.IntermediateWrite, Size: 1e6}
	if err := n.SubmitIO(bad); err == nil {
		t.Fatal("intermediate submit on a hollow node did not error")
	}
	eng.Run()
	if done != 1 {
		t.Fatalf("done = %d, want 1", done)
	}
}

func TestHollowShardedCoordinated(t *testing.T) {
	c, err := NewHollowSharded(Config{
		Nodes:      3,
		HDFSDisk:   hollowSpec(),
		Policy:     SFQD,
		Coordinate: true,
	}, 0, sim.FabricOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One coordination client per node (hdfs only), in node order.
	refs := c.Clients()
	if len(refs) != 3 {
		t.Fatalf("clients = %d, want 3 (one per hollow node)", len(refs))
	}
	for i, ref := range refs {
		if ref.Node != i || ref.Dev != "hdfs" {
			t.Fatalf("client %d = (node %d, %q), want (node %d, hdfs)", i, ref.Node, ref.Dev, i)
		}
	}
	// Instrument must visit exactly the hdfs scheduler of each node.
	visited := map[string]bool{}
	c.Instrument(func(shard, node int, dev string, s iosched.Scheduler) iosched.Probe {
		if shard != c.Nodes[node].Shard().ID() {
			t.Fatalf("node %d instrumented with shard %d, owned by shard %d", node, shard, c.Nodes[node].Shard().ID())
		}
		visited[dev] = true
		return nil
	})
	if len(visited) != 1 || !visited["hdfs"] {
		t.Fatalf("instrumented devices = %v, want only hdfs", visited)
	}
	done := 0
	for i, n := range c.Nodes {
		n.SubmitIO(&iosched.Request{
			App:   iosched.AppID("app" + string(rune('A'+i))),
			Class: iosched.PersistentRead,
			Size:  1e6,
			Done:  func(any, float64) { done++ },
		})
	}
	c.RunUntil(math.Inf(1))
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}
