package engine

import (
	"encoding/binary"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/shardlru"
	"mobilecache/internal/sim"
)

// DefaultMemoCapacity is the run memo's entry bound. Reports are small
// (a few KB with dynamic partition history), so a thousand entries
// comfortably covers a full mcbench run's repeated (machine, app, seed)
// cells.
const DefaultMemoCapacity = 1024

// memo is the bounded per-engine run memo. It replaces the old
// process-global sync.Map in internal/experiments, fixing that cache's
// two defects: it keyed on names — so a modified profile or machine
// config under an unchanged name was served a stale report — and it
// grew without bound. Keys here are the same content hashes the
// checkpoint journal uses (checkpoint.KeyOf over the machine config,
// profile, seed and run lengths).
//
// The memo is a lock-striped sharded LRU (internal/shardlru): the
// content hash picks a shard, the capacity splits across shards, and
// concurrent workers hitting a warm memo never serialize on a global
// mutex. Eviction is therefore per-shard LRU, not global LRU — a
// synchronization change only; the reports a hit returns are
// byte-identical either way.
type memo struct {
	cap   int
	cache *shardlru.Cache[checkpoint.Key, sim.RunReport]
}

// MemoStats counts how the run memo performed; reads are safe at any
// time, including while an execution is in flight.
type MemoStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Duplicates counts adds that found the key already present — two
	// workers racing the same cell both simulate and both add; the
	// loser's add collapses onto the incumbent and is counted here, so
	// hit/miss/entry arithmetic reconciles with lookup counts
	// (misses = entries added + duplicates, for successful runs).
	Duplicates uint64
	Entries    int
	// Shards is the stripe count; MaxShardEntries/MinShardEntries the
	// most and least populated stripes (the /metrics skew gauge).
	Shards          int
	MaxShardEntries int
	MinShardEntries int
}

// memoHash shards a checkpoint key by its leading bytes — the key is a
// SHA-256 content hash, already uniformly distributed.
func memoHash(k checkpoint.Key) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}

// newMemo builds the engine's DefaultMemoCapacity memo. The stripe
// count follows GOMAXPROCS (clamped by the capacity so no stripe's
// budget slice is empty).
func newMemo() *memo {
	return newMemoSharded(DefaultMemoCapacity, 0)
}

// newMemoSharded builds a memo of capacity > 0 entries over the given
// stripe count, 0 selecting the GOMAXPROCS default (tests size small
// memos here and pin exact single-stripe LRU order with shards = 1).
func newMemoSharded(capacity, shards int) *memo {
	return &memo{
		cap: capacity,
		cache: shardlru.New(shardlru.Config[checkpoint.Key, sim.RunReport]{
			Shards: shards,
			Budget: int64(capacity),
			Hash:   memoHash,
		}),
	}
}

// get returns the memoized report for key, refreshing its recency.
func (m *memo) get(key checkpoint.Key) (sim.RunReport, bool) {
	return m.cache.Get(key)
}

// add memoizes one successful run (unit cost; the budget is an entry
// count), evicting the least recently used entry in the key's shard
// when over its capacity slice. Duplicate adds — two workers racing
// the same cell — collapse to one entry and are counted; the reports
// are identical because runs are deterministic.
func (m *memo) add(key checkpoint.Key, rep sim.RunReport) {
	m.cache.Add(key, rep, 1)
}

// stats snapshots the memo counters, aggregated across shards.
func (m *memo) stats() MemoStats {
	st := m.cache.Stats()
	return MemoStats{
		Hits:            st.Hits,
		Misses:          st.Misses,
		Evictions:       st.Evictions,
		Duplicates:      st.Duplicates,
		Entries:         st.Entries,
		Shards:          st.Shards,
		MaxShardEntries: st.MaxShardEntries,
		MinShardEntries: st.MinShardEntries,
	}
}
