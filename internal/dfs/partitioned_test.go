package dfs

import (
	"reflect"
	"testing"
)

// TestPartitionedCreateMatchesAsyncAssembly: the synchronous Create
// must produce the exact layout the metadata shards produce
// asynchronously (Shape → per-partition PlacePartition in index order →
// Publish), for a legacy one-partition namenode as for a partitioned
// one. The mapreduce runtime assembles every input file this way.
func TestPartitionedCreateMatchesAsyncAssembly(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5} {
		mk := func() *Namenode {
			return NewNamenode(Config{Nodes: 16, BlockSize: 100, Replication: 3, Seed: 42, Partitions: parts})
		}
		files := []struct {
			name string
			size float64
		}{{"job-0/input", 1250}, {"job-1/input", 730}, {"solo", 99}}

		sync := mk()
		for _, fl := range files {
			if _, err := sync.Create(fl.name, fl.size); err != nil {
				t.Fatal(err)
			}
		}

		async := mk()
		for _, fl := range files {
			sizes := async.Shape(fl.size)
			// Group block indices by owner, then draw per partition in
			// index order — exactly what the runtime's placeInput does across shards.
			owned := make([][]int, async.Partitions())
			for i := range sizes {
				p := async.Owner(fl.name, i)
				owned[p] = append(owned[p], i)
			}
			replicas := make([][]int, len(sizes))
			for p, idxs := range owned {
				if len(idxs) == 0 {
					continue
				}
				sets := async.PlacePartition(p, len(idxs))
				for k, i := range idxs {
					replicas[i] = sets[k]
				}
			}
			if _, err := async.Publish(fl.name, sizes, replicas); err != nil {
				t.Fatal(err)
			}
		}

		for _, fl := range files {
			a, _ := sync.File(fl.name)
			b, _ := async.File(fl.name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("parts=%d file %q: sync layout %+v != async layout %+v", parts, fl.name, a, b)
			}
		}
	}
}

// TestPartitionedDrawOrderIndependence: draws on distinct partitions
// commute — interleaving them in any order yields the same per-block
// placements. This is what lets each metadata shard serve its
// partition without coordinating with the others.
func TestPartitionedDrawOrderIndependence(t *testing.T) {
	cfg := Config{Nodes: 12, BlockSize: 50, Replication: 3, Seed: 7, Partitions: 4}
	forward := NewNamenode(cfg)
	reverse := NewNamenode(cfg)

	fwd := make(map[int][][]int)
	for p := 0; p < 4; p++ {
		fwd[p] = forward.PlacePartition(p, 5)
	}
	rev := make(map[int][][]int)
	for p := 3; p >= 0; p-- {
		rev[p] = reverse.PlacePartition(p, 5)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("partition draws depend on inter-partition order:\nfwd=%v\nrev=%v", fwd, rev)
	}
}

// TestPlaceOutputKeyedPure: keyed output placement is a pure function
// of (seed, key, localNode) — repeated calls and calls on a fresh
// namenode agree, it never consumes shared RNG state, and the
// write-local-first rule holds.
func TestPlaceOutputKeyedPure(t *testing.T) {
	cfg := Config{Nodes: 10, BlockSize: 100, Replication: 3, Seed: 11, Partitions: 2}
	nn := NewNamenode(cfg)
	other := NewNamenode(cfg)

	keys := []uint64{0, 1, 42, 1 << 40, ^uint64(0)}
	for _, k := range keys {
		for local := 0; local < 10; local += 3 {
			a := nn.PlaceOutput(local, k)
			b := nn.PlaceOutput(local, k)
			c := other.PlaceOutput(local, k)
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
				t.Fatalf("key %d local %d: placements diverge: %v %v %v", k, local, a, b, c)
			}
			if a[0] != local {
				t.Fatalf("key %d: write-local-first violated: %v (local %d)", k, a, local)
			}
			seen := map[int]bool{}
			for _, n := range a {
				if n < 0 || n >= cfg.Nodes || seen[n] {
					t.Fatalf("key %d: bad replica set %v", k, a)
				}
				seen[n] = true
			}
		}
	}
	// Keyed placement must not advance the legacy or partition RNGs:
	// a Create after many keyed draws matches a Create on a fresh
	// namenode.
	f1, err := nn.Create("f", 500)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := other.Create("f", 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("keyed draws perturbed namenode state: %+v != %+v", f1, f2)
	}
}

// TestLegacyModeUnchanged: Partitions ≤ 1 keeps the single-RNG
// namenode bit for bit — the partitioned plumbing must not leak into
// legacy layouts.
func TestLegacyModeUnchanged(t *testing.T) {
	a := NewNamenode(Config{Nodes: 8, BlockSize: 100, Replication: 3, Seed: 9})
	b := NewNamenode(Config{Nodes: 8, BlockSize: 100, Replication: 3, Seed: 9, Partitions: 1})
	fa, _ := a.Create("x", 1000)
	fb, _ := b.Create("x", 1000)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("Partitions=1 changed legacy layout")
	}
	if a.Partitions() != 1 || b.Partitions() != 1 {
		t.Fatalf("legacy Partitions() = %d/%d, want 1/1", a.Partitions(), b.Partitions())
	}
}
