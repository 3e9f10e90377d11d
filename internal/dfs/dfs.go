// Package dfs models the GFS/HDFS-style distributed file system
// underlying the simulated big-data cluster: files are split into
// fixed-size blocks, each block is replicated on a set of distinct
// datanodes, and the namenode answers placement and locality queries.
// The paper's Table 1 configuration (128 MB blocks, replication 3) is
// the default.
package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DefaultBlockSize matches dfs.block.size = 134217728 from Table 1.
const DefaultBlockSize = 134217728

// DefaultReplication matches dfs.replication = 3 from Table 1.
const DefaultReplication = 3

// Config parameterizes the namenode.
type Config struct {
	// Nodes is the number of datanodes.
	Nodes int
	// BlockSize in bytes; defaults to DefaultBlockSize.
	BlockSize float64
	// Replication factor; defaults to DefaultReplication, clamped to
	// the node count.
	Replication int
	// Seed drives the deterministic placement RNG.
	Seed int64
	// Partitions shards block metadata by block-id hash across this
	// many independent partitions, each with its own placement RNG
	// (see partitioned.go). ≤ 1 keeps the legacy single-RNG namenode.
	Partitions int
}

func (c *Config) defaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Replication > c.Nodes {
		c.Replication = c.Nodes
	}
}

// Block is one replicated unit of a file.
type Block struct {
	// File is the owning file's name.
	File string
	// Index is the block's ordinal within the file.
	Index int
	// Size in bytes (the final block may be short).
	Size float64
	// Replicas lists the datanode indices holding a copy, primary
	// first.
	Replicas []int
}

// HasReplicaOn reports whether the block has a copy on the given node.
func (b *Block) HasReplicaOn(node int) bool {
	for _, r := range b.Replicas {
		if r == node {
			return true
		}
	}
	return false
}

// File is a named collection of blocks.
type File struct {
	Name   string
	Size   float64
	Blocks []Block
}

// Namenode places blocks and answers locality queries. All placement is
// driven by a seeded RNG, so a given seed reproduces an identical data
// layout.
type Namenode struct {
	cfg   Config
	rng   *rand.Rand
	files map[string]*File
	// parts holds the per-partition placement RNGs in partitioned mode
	// (nil in legacy mode); partition p's state is only ever advanced
	// by p's owner shard.
	parts []*rand.Rand
}

// NewNamenode constructs a namenode for the given cluster size.
func NewNamenode(cfg Config) *Namenode {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("dfs: cluster must have at least one node, got %d", cfg.Nodes))
	}
	cfg.defaults()
	nn := &Namenode{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		files: make(map[string]*File),
	}
	if cfg.Partitions > 1 {
		nn.parts = make([]*rand.Rand, cfg.Partitions)
		for p := range nn.parts {
			// Distinct streams per partition; the +1 keeps partition 0
			// off the legacy seed so layouts differ from legacy mode.
			nn.parts[p] = rand.New(rand.NewSource(cfg.Seed + int64(p) + 1))
		}
	}
	return nn
}

// Config returns the effective (defaulted) configuration.
func (nn *Namenode) Config() Config { return nn.cfg }

// BlockSize returns the configured block size.
func (nn *Namenode) BlockSize() float64 { return nn.cfg.BlockSize }

// Replication returns the effective replication factor.
func (nn *Namenode) Replication() int { return nn.cfg.Replication }

// Create allocates a file of the given size, placing every block on
// Replication distinct datanodes chosen uniformly at random.
func (nn *Namenode) Create(name string, size float64) (*File, error) {
	if _, ok := nn.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if size < 0 {
		return nil, fmt.Errorf("dfs: negative file size %g", size)
	}
	// The block's owner partition draws. Walking blocks in index order,
	// each partition sees its blocks in index order too, so this
	// produces the exact layout of the per-partition assembly
	// (Shape → PlacePartition → Publish).
	sizes := nn.Shape(size)
	replicas := make([][]int, len(sizes))
	for i := range sizes {
		replicas[i] = nn.pickFrom(nn.partition(nn.Owner(name, i)), -1)
	}
	return nn.Publish(name, sizes, replicas)
}

// File returns a previously created file.
func (nn *Namenode) File(name string) (*File, bool) {
	f, ok := nn.files[name]
	return f, ok
}

// Files lists all file names, sorted.
func (nn *Namenode) Files() []string {
	names := make([]string, 0, len(nn.files))
	for n := range nn.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delete removes a file; deleting a missing file is a no-op (HDFS
// semantics for -f).
func (nn *Namenode) Delete(name string) { delete(nn.files, name) }

// PlaceOutput returns a replica set for an output block being written
// from the given node: the writer's node first (HDFS's write-local-
// first rule), then Replication−1 distinct random remotes. key
// identifies the block, e.g. by the task attempt writing it. A
// partitioned namenode answers as a pure function of (seed, key,
// localNode): any shard computes the same set without touching shared
// state, so concurrent writers place deterministically regardless of
// completion interleaving. A legacy namenode ignores key and draws from
// its shared stream in call order.
func (nn *Namenode) PlaceOutput(localNode int, key uint64) []int {
	rng := nn.rng
	if len(nn.parts) > 0 {
		rng = rand.New(rand.NewSource(int64(mix64(uint64(nn.cfg.Seed) ^ key))))
	}
	if localNode < 0 || localNode >= nn.cfg.Nodes {
		return nn.pickFrom(rng, -1)
	}
	return nn.pickFrom(rng, localNode)
}

// BlockCountFor returns how many blocks a file of the given size
// occupies under this namenode's block size.
func (nn *Namenode) BlockCountFor(size float64) int {
	if size <= 0 {
		return 0
	}
	return int(math.Ceil(size / nn.cfg.BlockSize))
}
