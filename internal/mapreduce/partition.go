package mapreduce

import (
	"bytes"
	"sort"
)

// Partitioner assigns an intermediate key to one of n reduce partitions.
// Keys arrive in their order-preserving sort-key encoding
// (serde.Datum.AppendSortKey), so byte comparison respects datum order.
// Implementations must be safe for concurrent use by parallel map tasks.
type Partitioner interface {
	Partition(key []byte, n int) int
}

// HashPartitioner spreads keys uniformly with FNV-1a; the default.
type HashPartitioner struct{}

// Partition implements Partitioner.
func (HashPartitioner) Partition(key []byte, n int) int {
	return int(fnv1a(key) % uint32(n))
}

// fnv1a is HashPartitioner's hash, inlined: hash/fnv allocates a hasher per
// call, far too expensive for a per-emitted-record path. It is the one hash
// a map task with a Combine computes per emitted pair: the task derives
// both the key's partition and its combTable slot from it (see
// shuffleEmitter).
func fnv1a(key []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}

// RangePartitioner routes keys by sorted cut points: partition p receives
// keys in [Bounds[p-1], Bounds[p]), so reduce partitions tile the key space
// in order. Sharded B+Tree index-generation jobs derive Bounds from an
// input key sample, letting each reduce task bulk-load one ordered shard;
// the same bounds become the shard manifest's boundaries.
type RangePartitioner struct {
	// Bounds are the strictly increasing interior cut keys, sort-key
	// encoded; len(Bounds) must be numPartitions-1.
	Bounds [][]byte
}

// Partition implements Partitioner.
func (rp *RangePartitioner) Partition(key []byte, n int) int {
	p := sort.Search(len(rp.Bounds), func(i int) bool { return bytes.Compare(rp.Bounds[i], key) > 0 })
	if p >= n {
		p = n - 1
	}
	return p
}
