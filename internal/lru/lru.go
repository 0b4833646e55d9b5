// Package lru is a generic LRU cache behind one mutex, bounded by a
// cost budget. The engine's run memo and the trace arena are built on
// it.
//
// One lock is enough for them. A cell takes the memo's lock for its
// lookup, plus an add on a miss, and the arena's lock twice
// (GetOrReserve, then Commit on a build or WithLock on a hit): at most
// four map-and-list operations per cell, while the benchmark's shortest
// cells (sweep-sampled's) take a median 1.5–1.8 ms on a 2-vCPU host.
//
// The cache is cost-based, not entry-based: every committed entry
// carries a caller-chosen cost (1 for entry-count budgets, bytes for
// byte budgets), and the cache evicts least-recently-used entries once
// the total exceeds the budget. A Demote hook lets a caller shrink an
// entry in place (the trace arena drops a trace's hot decoded form and
// keeps the packed form) before whole entries are evicted.
//
// Two-phase insertion (GetOrReserve then Commit or Delete) gives
// callers singleflight semantics: a reservation is visible to later
// lookups — they join it instead of duplicating work — but is not
// charged against the budget and cannot be evicted or demoted until
// committed. Single-phase callers use Add.
package lru

import (
	"container/list"
	"sync"
)

// Config shapes a Cache.
type Config[K comparable, V any] struct {
	// Budget is the total cost budget, in whatever unit the caller
	// charges costs in (entries, bytes); <= 0 is unlimited.
	Budget int64
	// Demote, when set, is offered an over-budget cache's entries
	// (least recently used first) before whole-entry eviction. It runs
	// under the cache's lock and returns the cost it reclaimed by
	// shrinking the value in place (0 = not demotable). Reserved
	// entries are never offered.
	Demote func(K, V) int64
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count lookups (Get and GetOrReserve); a
	// reservation counts as the miss that created it.
	Hits   uint64
	Misses uint64
	// Evictions counts whole entries dropped over budget; Demotions
	// counts successful Demote calls (cost reclaimed in place).
	Evictions uint64
	Demotions uint64
	// Duplicates counts Adds that found the key already present (two
	// callers racing the same computation) and kept the incumbent.
	Duplicates uint64
	// CostInUse is the committed cost currently charged; Entries the
	// resident entry count, reservations included.
	CostInUse int64
	Entries   int
}

// item is one entry; elem is its place in the recency list, nil while
// it is a reservation.
type item[K comparable, V any] struct {
	key  K
	val  V
	cost int64
	elem *list.Element
}

// Cache is an LRU under one mutex. The zero value is not usable; call
// New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	demote  func(K, V) int64
	entries map[K]*item[K, V]
	recency *list.List // of *item; front is most recently used
	st      Stats
}

// New builds a cache from cfg.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	return &Cache[K, V]{
		budget:  cfg.Budget,
		demote:  cfg.Demote,
		entries: make(map[K]*item[K, V]),
		recency: list.New(),
	}
}

// Get returns the value for key, counting a hit or miss and refreshing
// the entry's recency. Reserved (uncommitted) entries are returned
// like any other — the caller's value type carries whatever
// synchronization a joiner needs (the trace arena's ready channel).
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.entries[key]
	if !ok {
		c.st.Misses++
		var zero V
		return zero, false
	}
	c.st.Hits++
	c.touch(it)
	return it.val, true
}

// Add inserts a committed entry with the given cost, evicting over
// budget. If the key is already present the incumbent wins: the call
// counts a duplicate, refreshes the incumbent's recency and reports
// false — two callers racing the same deterministic computation must
// collapse to one entry, and the loser's count is what reconciles
// lookup arithmetic (misses = adds + duplicates + failures).
func (c *Cache[K, V]) Add(key K, v V, cost int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.entries[key]; ok {
		c.st.Duplicates++
		c.touch(it)
		return false
	}
	it := &item[K, V]{key: key, val: v}
	c.entries[key] = it
	c.charge(it, cost)
	return true
}

// GetOrReserve returns the existing entry (a hit, recency refreshed)
// or inserts v as an uncharged reservation (a miss) and reports
// reserved = true. A reservation is visible to later lookups but sits
// outside the recency list: it cannot be evicted or demoted until
// Commit, and must be resolved with Commit (success) or Delete
// (failure).
func (c *Cache[K, V]) GetOrReserve(key K, v V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.entries[key]; ok {
		c.st.Hits++
		c.touch(it)
		return it.val, false
	}
	c.st.Misses++
	c.entries[key] = &item[K, V]{key: key, val: v}
	return v, true
}

// Commit charges a reservation with its final cost and links it into
// the recency list, bringing the cache back within budget; the
// committed entry itself is evicted last, after demotion and every
// older entry. Committing an absent or already-committed key is a
// no-op (false) — the reservation may have been Deleted.
func (c *Cache[K, V]) Commit(key K, cost int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.entries[key]
	if !ok || it.elem != nil {
		return false
	}
	c.charge(it, cost)
	return true
}

// Delete removes the entry (committed or reserved), refunding its
// charged cost. It reports whether the key was present.
func (c *Cache[K, V]) Delete(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.entries[key]
	if !ok {
		return false
	}
	c.remove(it)
	return true
}

// WithLock runs fn while holding the cache's lock. Values whose
// interior a Demote hook mutates (the trace arena's hot decoded slice)
// are protected by that lock; this is how a caller reads such state
// coherently after the entry may have been demoted, evicted or
// replaced.
func (c *Cache[K, V]) WithLock(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = len(c.entries)
	return st
}

// --- internals (all called under c.mu) ---

func (c *Cache[K, V]) touch(it *item[K, V]) {
	if it.elem != nil { // reservations are not in the list
		c.recency.MoveToFront(it.elem)
	}
}

// charge links it as the most recently used entry at the given cost,
// then brings the cache back within budget, least recently used first:
// demote entries in place where the hook can reclaim cost, then evict
// whole entries, it included. Every caller already holds the value it
// inserted, so evicting it drops only the cache's reference.
func (c *Cache[K, V]) charge(it *item[K, V], cost int64) {
	it.cost = cost
	it.elem = c.recency.PushFront(it)
	c.st.CostInUse += cost
	if c.budget <= 0 {
		return
	}
	if c.demote != nil {
		for e := c.recency.Back(); c.st.CostInUse > c.budget && e != nil; e = e.Prev() {
			v := e.Value.(*item[K, V])
			if r := c.demote(v.key, v.val); r > 0 {
				c.st.CostInUse -= r
				v.cost -= r
				c.st.Demotions++
			}
		}
	}
	for c.st.CostInUse > c.budget && c.recency.Len() > 0 {
		c.remove(c.recency.Back().Value.(*item[K, V]))
		c.st.Evictions++
	}
}

// remove drops it from the map and, if committed, from the recency
// list, refunding its cost.
func (c *Cache[K, V]) remove(it *item[K, V]) {
	if it.elem != nil {
		c.recency.Remove(it.elem)
		c.st.CostInUse -= it.cost
	}
	delete(c.entries, it.key)
}
