package dfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCreateSplitsIntoBlocks(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 8, BlockSize: 100, Replication: 3})
	f, err := nn.Create("data", 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(f.Blocks))
	}
	if f.Blocks[0].Size != 100 || f.Blocks[1].Size != 100 || f.Blocks[2].Size != 50 {
		t.Fatalf("block sizes = %v %v %v", f.Blocks[0].Size, f.Blocks[1].Size, f.Blocks[2].Size)
	}
	total := 0.0
	for _, b := range f.Blocks {
		total += b.Size
	}
	if total != 250 {
		t.Fatalf("block total = %v, want 250", total)
	}
}

func TestReplicasDistinctAndInRange(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 8, Replication: 3, BlockSize: 10})
	f, _ := nn.Create("data", 1000)
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas", b.Index, len(b.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if r < 0 || r >= 8 {
				t.Fatalf("replica node %d out of range", r)
			}
			if seen[r] {
				t.Fatalf("block %d has duplicate replica %d", b.Index, r)
			}
			seen[r] = true
		}
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4})
	if _, err := nn.Create("x", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Create("x", 10); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestNegativeSizeFails(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4})
	if _, err := nn.Create("x", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestFileLookupAndDelete(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4})
	nn.Create("a", 10)
	if _, ok := nn.File("a"); !ok {
		t.Fatal("file not found")
	}
	if _, ok := nn.File("b"); ok {
		t.Fatal("phantom file")
	}
	nn.Delete("a")
	if _, ok := nn.File("a"); ok {
		t.Fatal("file survived delete")
	}
	nn.Delete("a") // idempotent
}

func TestFilesSorted(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4})
	nn.Create("zz", 1)
	nn.Create("aa", 1)
	names := nn.Files()
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Fatalf("Files = %v", names)
	}
}

func TestDefaults(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 8})
	if nn.BlockSize() != DefaultBlockSize {
		t.Fatalf("block size = %v", nn.BlockSize())
	}
	if nn.Replication() != DefaultReplication {
		t.Fatalf("replication = %v", nn.Replication())
	}
}

func TestReplicationClampedToNodes(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 2, Replication: 3})
	if nn.Replication() != 2 {
		t.Fatalf("replication = %d, want clamped to 2", nn.Replication())
	}
	f, _ := nn.Create("x", 10)
	if len(f.Blocks[0].Replicas) != 2 {
		t.Fatalf("replicas = %v", f.Blocks[0].Replicas)
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero nodes accepted")
		}
	}()
	NewNamenode(Config{})
}

func TestPlaceOutputLocalFirst(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 8, Replication: 3})
	for node := 0; node < 8; node++ {
		reps := nn.PlaceOutput(node, 0)
		if reps[0] != node {
			t.Fatalf("PlaceOutput(%d) primary = %d", node, reps[0])
		}
		if len(reps) != 3 {
			t.Fatalf("PlaceOutput(%d) = %v", node, reps)
		}
	}
}

func TestPlaceOutputInvalidNode(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4, Replication: 2})
	reps := nn.PlaceOutput(-1, 0)
	if len(reps) != 2 {
		t.Fatalf("PlaceOutput(-1) = %v", reps)
	}
}

func TestHasReplicaOn(t *testing.T) {
	b := Block{Replicas: []int{1, 5, 7}}
	if !b.HasReplicaOn(5) || b.HasReplicaOn(2) {
		t.Fatal("HasReplicaOn wrong")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	layout := func() [][]int {
		nn := NewNamenode(Config{Nodes: 8, Seed: 99, BlockSize: 10})
		f, _ := nn.Create("d", 200)
		var out [][]int
		for _, b := range f.Blocks {
			out = append(out, b.Replicas)
		}
		return out
	}
	a, b := layout(), layout()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("placement not deterministic at block %d", i)
			}
		}
	}
}

func TestPlacementRoughlyBalanced(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 8, Replication: 3, BlockSize: 1, Seed: 1})
	f, _ := nn.Create("big", 4000)
	counts := make([]int, 8)
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			counts[r]++
		}
	}
	// 4000 blocks × 3 replicas / 8 nodes = 1500 expected per node.
	for i, c := range counts {
		if math.Abs(float64(c)-1500)/1500 > 0.1 {
			t.Fatalf("node %d holds %d replicas, want ≈1500 (skewed placement)", i, c)
		}
	}
}

func TestBlockCountFor(t *testing.T) {
	nn := NewNamenode(Config{Nodes: 4, BlockSize: 128})
	cases := []struct {
		size float64
		want int
	}{
		{0, 0}, {-3, 0}, {1, 1}, {128, 1}, {129, 2}, {1280, 10},
	}
	for _, c := range cases {
		if got := nn.BlockCountFor(c.size); got != c.want {
			t.Errorf("BlockCountFor(%v) = %d, want %d", c.size, got, c.want)
		}
	}
}

// Property: any file's blocks cover exactly the file size and replicas
// are always distinct.
func TestPropertyCreateInvariants(t *testing.T) {
	f := func(sizeRaw uint32, nodesRaw, repRaw uint8) bool {
		nodes := 1 + int(nodesRaw%16)
		rep := 1 + int(repRaw%5)
		size := float64(sizeRaw % 100000)
		nn := NewNamenode(Config{Nodes: nodes, Replication: rep, BlockSize: 997})
		file, err := nn.Create("f", size)
		if err != nil {
			return false
		}
		total := 0.0
		for _, b := range file.Blocks {
			total += b.Size
			if b.Size <= 0 || b.Size > 997 {
				return false
			}
			seen := map[int]bool{}
			for _, r := range b.Replicas {
				if r < 0 || r >= nodes || seen[r] {
					return false
				}
				seen[r] = true
			}
			if len(b.Replicas) != nn.Replication() {
				return false
			}
		}
		return math.Abs(total-size) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
