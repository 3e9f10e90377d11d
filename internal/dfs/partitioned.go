package dfs

// Partitioned namenode: block metadata sharded by block-id hash.
//
// The classic single namenode is a serial point — every placement
// decision draws from one RNG, so placements must happen in one global
// order, on one engine. Partitioning removes that order dependence:
//
//   - Each block of a file is owned by the partition FNV-1a(file,
//     index) hashes to. A partition draws placements for its blocks
//     from its own RNG, so two partitions' draws commute — they can
//     run on different metadata shards without coordinating.
//   - Output placement (PlaceOutput) is a pure function of a
//     caller-supplied key: the "owner" partition's answer is
//     computable anywhere, so datanode-shard writers place blocks
//     without a namenode round trip, and the layout is independent of
//     the order concurrent writers reach it.
//
// Reads never consult the namenode at all once a file is published —
// Block.Replicas is immutable after Publish/Create — so lookups
// resolve on whichever shard holds the *File.
//
// A Namenode with Partitions ≤ 1 keeps the legacy behavior bit for
// bit: one RNG, draws in call order, PlaceOutput consuming the shared
// stream — a single partition, which is what single-engine runs use.
// The partitioned mode is opt-in (sharded assemblies).

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Owner returns the partition owning the given block. Only meaningful
// in partitioned mode; with Partitions ≤ 1 it returns 0.
func (nn *Namenode) Owner(file string, index int) int {
	if len(nn.parts) == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(file))
	var buf [8]byte
	for i, v := 0, uint64(index); i < 8; i++ {
		buf[i] = byte(v)
		v >>= 8
	}
	h.Write(buf[:])
	return int(h.Sum64() % uint64(len(nn.parts)))
}

// Partitions returns the metadata partition count (1 in legacy mode).
func (nn *Namenode) Partitions() int {
	if len(nn.parts) == 0 {
		return 1
	}
	return len(nn.parts)
}

// Shape returns the per-block sizes a file of the given size splits
// into under the configured block size.
func (nn *Namenode) Shape(size float64) []float64 {
	n := nn.BlockCountFor(size)
	sizes := make([]float64, n)
	remaining := size
	for i := range sizes {
		bs := nn.cfg.BlockSize
		if remaining < bs {
			bs = remaining
		}
		sizes[i] = bs
		remaining -= bs
	}
	return sizes
}

// PlacePartition draws replica sets on partition p for count blocks,
// in request order. The caller is responsible for running all of
// partition p's draws on a single owner (the partition's metadata
// shard); draws on distinct partitions are independent. A legacy
// namenode is one partition, 0, drawing from its shared stream.
func (nn *Namenode) PlacePartition(p, count int) [][]int {
	out := make([][]int, count)
	for i := range out {
		out[i] = nn.pickFrom(nn.partition(p), -1)
	}
	return out
}

// partition returns partition p's placement stream: its own RNG when
// partitioned, the legacy shared one otherwise.
func (nn *Namenode) partition(p int) *rand.Rand {
	if len(nn.parts) == 0 {
		return nn.rng
	}
	return nn.parts[p]
}

// Publish registers a file assembled from per-partition placement
// draws: sizes[i] and replicas[i] describe block i. It is the
// partitioned counterpart of Create's registration step and runs on
// the coordinator after every owner partition has answered.
func (nn *Namenode) Publish(name string, sizes []float64, replicas [][]int) (*File, error) {
	if _, ok := nn.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if len(sizes) != len(replicas) {
		return nil, fmt.Errorf("dfs: %d block sizes but %d replica sets", len(sizes), len(replicas))
	}
	f := &File{Name: name}
	for i, bs := range sizes {
		f.Size += bs
		f.Blocks = append(f.Blocks, Block{
			File:     name,
			Index:    i,
			Size:     bs,
			Replicas: replicas[i],
		})
	}
	nn.files[name] = f
	return f, nil
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed hash
// to decorrelate adjacent placement keys before seeding.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickFrom is pickReplicas against an explicit RNG (a partition's, or
// a keyed throwaway).
func (nn *Namenode) pickFrom(rng *rand.Rand, first int) []int {
	r := nn.cfg.Replication
	replicas := make([]int, 0, r)
	used := make(map[int]bool, r)
	if first >= 0 {
		replicas = append(replicas, first)
		used[first] = true
	}
	for len(replicas) < r {
		n := rng.Intn(nn.cfg.Nodes)
		if !used[n] {
			used[n] = true
			replicas = append(replicas, n)
		}
	}
	return replicas
}
