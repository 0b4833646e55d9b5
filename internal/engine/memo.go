package engine

import (
	"mobilecache/internal/checkpoint"
	"mobilecache/internal/lru"
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
// profile, seed and run lengths). It is one LRU behind one mutex
// (internal/lru), keeping the capacity most recently used reports.
type memo struct {
	cache *lru.Cache[checkpoint.Key, sim.RunReport]
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
}

// newMemo builds a memo of capacity > 0 entries; the engine's holds
// DefaultMemoCapacity.
func newMemo(capacity int) *memo {
	return &memo{cache: lru.New(lru.Config[checkpoint.Key, sim.RunReport]{Budget: int64(capacity)})}
}

// get returns the memoized report for key, refreshing its recency.
func (m *memo) get(key checkpoint.Key) (sim.RunReport, bool) {
	return m.cache.Get(key)
}

// add memoizes one successful run (unit cost; the budget is an entry
// count), evicting the least recently used entry when over capacity.
// Duplicate adds — two workers racing the same cell — collapse to one
// entry and are counted; the reports are identical because runs are
// deterministic.
func (m *memo) add(key checkpoint.Key, rep sim.RunReport) {
	m.cache.Add(key, rep, 1)
}

// stats snapshots the memo counters.
func (m *memo) stats() MemoStats {
	st := m.cache.Stats()
	return MemoStats{
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		Duplicates: st.Duplicates,
		Entries:    st.Entries,
	}
}
