package sct

import (
	"sync"
	"sync/atomic"
)

// tableShards keeps lock contention negligible relative to the cost of
// executing a schedule; it must be a power of two.
const tableShards = 64

// shardedTable is a concurrent map from a 64-bit hash to V: tableShards
// mutex-guarded shards, picked by the key's low bits, and a count of the keys
// that is read without the locks (progress snapshots, growth-curve samples
// and journal checkpoints read it). The zero value is ready to use. Its users
// write their critical sections inline, between locking the key's shard and
// unlocking it, and count the keys they add: the state cache's runs at every
// scheduling point.
type shardedTable[V any] struct {
	shards [tableShards]tableShard[V]
	keys   atomic.Int64
}

type tableShard[V any] struct {
	mu sync.Mutex
	m  map[uint64]V
}

// shard returns key's shard, unlocked.
func (t *shardedTable[V]) shard(key uint64) *tableShard[V] {
	return &t.shards[key&(tableShards-1)]
}

// put sets key's value; the caller holds s.mu.
func (s *tableShard[V]) put(key uint64, v V) {
	if s.m == nil {
		s.m = make(map[uint64]V)
	}
	s.m[key] = v
}

// size returns the number of keys in the table.
func (t *shardedTable[V]) size() int { return int(t.keys.Load()) }
