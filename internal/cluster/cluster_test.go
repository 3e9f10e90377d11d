package cluster

import (
	"math"
	"strings"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

func newCluster(t *testing.T, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestDefaultsMatchPaperTestbed(t *testing.T) {
	_, c := newCluster(t, Config{})
	cfg := c.Config()
	if cfg.Nodes != 8 || cfg.CoresPerNode != 12 || cfg.MemGBPerNode != 24 {
		t.Fatalf("defaults = %d nodes × %d cores × %g GB", cfg.Nodes, cfg.CoresPerNode, cfg.MemGBPerNode)
	}
	if c.TotalCores() != 96 {
		t.Fatalf("total cores = %d, want 96", c.TotalCores())
	}
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
}

func TestPolicyWiring(t *testing.T) {
	cases := []struct {
		policy    Policy
		hdfsName  string
		localName string
	}{
		{Native, "native", "native"},
		{SFQD, "sfq(d=4)", "sfq(d=4)"},
		{SFQD2, "sfq(d2)", "sfq(d2)"},
		{CGWeight, "native", "cgroups-weight"},
		{CGThrottle, "native", "cgroups-throttle"},
	}
	for _, cse := range cases {
		t.Run(cse.policy.String(), func(t *testing.T) {
			_, c := newCluster(t, Config{Nodes: 2, Policy: cse.policy})
			n := c.Nodes[0]
			if got := n.HDFSSched.Name(); got != cse.hdfsName {
				t.Errorf("HDFS scheduler = %q, want %q", got, cse.hdfsName)
			}
			if got := n.LocalSched.Name(); got != cse.localName {
				t.Errorf("local scheduler = %q, want %q", got, cse.localName)
			}
		})
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{Native, SFQD, SFQD2, CGWeight, CGThrottle} {
		if p.String() == "" || strings.HasPrefix(p.String(), "Policy(") {
			t.Errorf("policy %d renders as %q", int(p), p.String())
		}
	}
	if Policy(99).String() != "Policy(99)" {
		t.Error("unknown policy should render with its number")
	}
}

func TestSubmitIORouting(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 1, Policy: Native})
	n := c.Nodes[0]
	n.SubmitIO(&iosched.Request{AppIdx: c.Shares().Index("A"), Class: iosched.PersistentRead, Size: 1e6})
	n.SubmitIO(&iosched.Request{AppIdx: c.Shares().Index("A"), Class: iosched.IntermediateWrite, Size: 2e6})
	eng.Run()
	if got := n.HDFS.Stats().ReadBytes; got != 1e6 {
		t.Fatalf("HDFS device read %v bytes, want 1e6", got)
	}
	if got := n.Local.Stats().WriteBytes; got != 2e6 {
		t.Fatalf("local device wrote %v bytes, want 2e6", got)
	}
}

func TestSendTransfersThroughNICs(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2})
	done := -1.0
	c.Nodes[0].Send(c.Nodes[1], 50e6, func() { done = eng.Now() })
	eng.Run()
	// 50 MB through the egress NIC, then through the ingress NIC.
	if want := 2 * 50e6 / nicBandwidth; done < 0.9*want || done > 1.1*want {
		t.Fatalf("transfer completed at %v, want ≈%v", done, want)
	}
	if c.Nodes[0].NICOutBusy() == 0 || c.Nodes[1].NICInBusy() == 0 {
		t.Fatal("NIC busy counters empty")
	}
}

func TestSendZeroBytes(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2})
	fired := false
	c.Nodes[0].Send(c.Nodes[1], 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte send never completed")
	}
}

func TestNICContention(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 3})
	var t1, t2 float64
	// Two concurrent sends share node 0's egress NIC.
	c.Nodes[0].Send(c.Nodes[1], 50e6, func() { t1 = eng.Now() })
	c.Nodes[0].Send(c.Nodes[2], 50e6, func() { t2 = eng.Now() })
	eng.Run()
	// Shared egress: each gets half the NIC for the first leg (two leg
	// times), then dedicated ingress (one) ⇒ ≈3 leg times, against 2
	// without sharing.
	if leg := 50e6 / nicBandwidth; t1 < 2.4*leg || t2 < 2.4*leg {
		t.Fatalf("concurrent sends finished at %v/%v; egress sharing missing", t1, t2)
	}
}

func TestCoordinationCreatesBroker(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 2, Policy: SFQD, Coordinate: true})
	if got := len(c.Partitions()); got != 1 {
		t.Fatalf("Coordinate=true: %d partition brokers, want 1", got)
	}
	if c.FederationRoot() != nil {
		t.Fatal("one partition but a federation root")
	}
	_, c2 := newCluster(t, Config{Nodes: 2, Policy: SFQD})
	if c2.Partitions() != nil {
		t.Fatal("Coordinate=false but broker present")
	}
}

func TestCoordinatedSchedulersReport(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2, Policy: SFQD, Coordinate: true, CoordinationPeriod: 0.5})
	c.Nodes[0].SubmitIO(&iosched.Request{AppIdx: c.Shares().Index("A"), Class: iosched.PersistentRead, Size: 10e6})
	eng.Schedule(3, func() {}) // keep alive for a few exchanges
	eng.Run()
	if c.Partitions()[0].Broker().Total("A") <= 0 {
		t.Fatal("broker never learned about app A's service")
	}
}

func TestSFQD2ControllerFilledFromProfile(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 1, Policy: SFQD2})
	sfq, ok := c.Nodes[0].HDFSSched.(*iosched.SFQ)
	if !ok {
		t.Fatal("SFQD2 policy did not produce an SFQ scheduler")
	}
	if sfq.Controller() == nil {
		t.Fatal("no controller attached")
	}
}

// TestIOObserverSeesAllTraffic submits caller-allocated requests, which
// no pool recycles; the observer still keeps no pointer past its call.
func TestIOObserverSeesAllTraffic(t *testing.T) {
	eng, c := newCluster(t, Config{Nodes: 2, Policy: SFQD})
	var events int
	var nodesSeen = map[int]bool{}
	c.SetIOObserver(func(node int, req *iosched.Request, lat float64) {
		events++
		nodesSeen[node] = true
		if lat < 0 {
			t.Errorf("negative latency %v", lat)
		}
	})
	c.Nodes[0].SubmitIO(&iosched.Request{AppIdx: c.Shares().Index("A"), Class: iosched.PersistentRead, Size: 1e6})
	c.Nodes[1].SubmitIO(&iosched.Request{AppIdx: c.Shares().Index("A"), Class: iosched.IntermediateWrite, Size: 1e6})
	eng.Run()
	if events != 2 {
		t.Fatalf("observer saw %d events, want 2", events)
	}
	if !nodesSeen[0] || !nodesSeen[1] {
		t.Fatalf("nodes seen: %v", nodesSeen)
	}
}

func TestNodeResourceBookkeeping(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 1})
	n := c.Nodes[0]
	if n.FreeCores() != 12 || n.FreeMemGB() != 24 {
		t.Fatalf("fresh node: %d cores, %g GB", n.FreeCores(), n.FreeMemGB())
	}
	n.UsedCores = 5
	n.UsedMemGB = 10
	if n.FreeCores() != 7 || n.FreeMemGB() != 14 {
		t.Fatalf("after alloc: %d cores, %g GB", n.FreeCores(), n.FreeMemGB())
	}
}

func TestProfileForCaches(t *testing.T) {
	spec := storage.HDDSpec()
	p1, err := ProfileFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ReadLref != p2.ReadLref {
		t.Fatal("cache returned different profile")
	}
}

func TestSSDClusterBuilds(t *testing.T) {
	_, c := newCluster(t, Config{
		Nodes:     2,
		Policy:    SFQD2,
		HDFSDisk:  storage.SSDSpec(),
		LocalDisk: storage.SSDSpec(),
	})
	if c.Nodes[0].HDFS.Spec().Name != "ssd" {
		t.Fatal("SSD spec not applied")
	}
}

// TestFederationValidation: a partitioning the assembly cannot honour
// is an error from every constructor, not a silently centralized plane.
func TestFederationValidation(t *testing.T) {
	fo := sim.FabricOptions{Workers: 1}
	cases := []struct {
		name  string
		build func(Config) (*Cluster, error)
		cfg   Config
		want  string
	}{
		{"uncoordinated sharded", func(c Config) (*Cluster, error) { return NewSharded(c, 0, fo) },
			Config{Nodes: 4, Policy: SFQD, Federation: Federation{Partitions: 2}}, "without Coordinate"},
		{"uncoordinated hollow", func(c Config) (*Cluster, error) { return NewHollowSharded(c, 0, fo) },
			Config{Nodes: 4, Policy: SFQD, Federation: Federation{Partitions: 2}}, "without Coordinate"},
		{"uncoordinated one engine", func(c Config) (*Cluster, error) { return New(sim.NewEngine(), c) },
			Config{Nodes: 4, Policy: SFQD, Federation: Federation{Partitions: 2}}, "without Coordinate"},
		{"one engine", func(c Config) (*Cluster, error) { return New(sim.NewEngine(), c) },
			Config{Nodes: 4, Policy: SFQD, Coordinate: true, Federation: Federation{Partitions: 2}}, "sharded assembly"},
		{"more partitions than nodes", func(c Config) (*Cluster, error) { return NewSharded(c, 0, fo) },
			Config{Nodes: 2, Policy: SFQD, Coordinate: true, Federation: Federation{Partitions: 3}}, "exceed"},
	}
	for _, tc := range cases {
		_, err := tc.build(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// One partition is the plane's default, with or without sharding.
	for _, p := range []int{0, 1} {
		c, err := NewSharded(Config{Nodes: 2, Policy: SFQD, Coordinate: true, Federation: Federation{Partitions: p}}, 0, fo)
		if err != nil {
			t.Fatalf("Partitions=%d: %v", p, err)
		}
		if got := len(c.Partitions()); got != 1 || c.PartitionShard(0) != c.CoordShard().ID() {
			t.Errorf("Partitions=%d: %d partitions, first on shard %d, want 1 on the coordinator", p, got, c.PartitionShard(0))
		}
	}
}

// TestInvalidDiskSpecIsAnError: a malformed disk spec in the public
// config is rejected with an error by every constructor, instead of
// panicking in the device model. A hollow cluster has no local disk,
// so only its HDFS disk is checked.
func TestInvalidDiskSpecIsAnError(t *testing.T) {
	emptyCurve := storage.HDDSpec()
	emptyCurve.Curve = nil
	nanRead := storage.HDDSpec()
	nanRead.ReadBW = math.NaN()
	infCurve := storage.HDDSpec()
	infCurve.Curve = []float64{1, math.Inf(1)}
	negOverhead := storage.HDDSpec()
	negOverhead.PerOpOverhead = -1
	builds := map[string]func(Config) (*Cluster, error){
		"New": func(cfg Config) (*Cluster, error) { return New(sim.NewEngine(), cfg) },
		"NewSharded": func(cfg Config) (*Cluster, error) {
			return NewSharded(cfg, 0, sim.FabricOptions{})
		},
		"NewHollowSharded": func(cfg Config) (*Cluster, error) {
			return NewHollowSharded(cfg, 0, sim.FabricOptions{})
		},
	}
	for name, build := range builds {
		for bad, spec := range map[string]storage.Spec{
			"empty-curve": emptyCurve, "nan-read": nanRead,
			"inf-curve": infCurve, "negative-overhead": negOverhead,
		} {
			for _, policy := range []Policy{Native, SFQD2} {
				if _, err := build(Config{Nodes: 2, Policy: policy, HDFSDisk: spec}); err == nil {
					t.Errorf("%s: %s HDFS disk under %v accepted", name, bad, policy)
				}
				_, err := build(Config{Nodes: 2, Policy: policy, LocalDisk: spec})
				if hollow := name == "NewHollowSharded"; hollow != (err == nil) {
					t.Errorf("%s: %s local disk under %v: err = %v", name, bad, policy, err)
				}
			}
		}
	}
}
