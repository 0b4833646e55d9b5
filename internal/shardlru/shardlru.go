// Package shardlru is a generic lock-striped sharded LRU cache: keys
// hash to one of P power-of-two shards, and each shard owns its own
// mutex, LRU list, slice of the cost budget and counters. Concurrent
// callers touching different shards never contend, so a warm cache
// scales with cores instead of serializing on one global lock — the
// property the engine run memo and the trace arena need at high -jobs
// and under the sweep daemon, where every worker's lookups used to
// funnel through a single mutex.
//
// The cache is cost-based, not entry-based: every committed entry
// carries a caller-chosen cost (1 for entry-count budgets, bytes for
// byte budgets) and each shard evicts least-recently-used entries once
// its slice of the total budget is exceeded. A Demote hook lets a
// caller shrink an entry in place (the trace arena drops a trace's hot
// decoded form and keeps the packed form) before the shard falls back
// to whole-entry eviction.
//
// Two-phase insertion (GetOrReserve then Commit or Delete) gives
// callers singleflight semantics: a reservation is visible to later
// lookups — they join it instead of duplicating work — but is not
// charged against the budget and cannot be evicted or demoted until
// committed. Single-phase callers use Add.
//
// Stats aggregates the per-shard counters by visiting shards one at a
// time; there is no global lock anywhere in the package, so a stats
// scrape never stalls the hot path behind a whole-cache mutex.
package shardlru

import (
	"runtime"
	"sync"
)

// MaxShards bounds the stripe count; past a few hundred stripes the
// marginal contention win is zero and the per-shard budget slices get
// uselessly thin.
const MaxShards = 256

// Config shapes a Cache.
type Config[K comparable, V any] struct {
	// Shards is the stripe count, rounded up to a power of two and
	// clamped to [1, MaxShards]; <= 0 selects a default derived from
	// GOMAXPROCS. When Budget > 0 the count is further clamped so every
	// shard's budget slice is at least 1 cost unit.
	Shards int
	// Budget is the total cost budget across all shards, in whatever
	// unit the caller charges costs in (entries, bytes); <= 0 is
	// unlimited. Each shard enforces Budget/Shards (remainder spread
	// one unit at a time), so the shard budgets sum to Budget exactly.
	Budget int64
	// Hash maps a key to a well-distributed 64-bit value; its low bits
	// select the shard. Required.
	Hash func(K) uint64
	// Demote, when set, is offered an over-budget shard's entries
	// (least recently used first) before whole-entry eviction. It runs
	// under the shard lock and returns the cost it reclaimed by
	// shrinking the value in place (0 = not demotable). Reserved
	// entries are never offered.
	Demote func(K, V) int64
}

// Stats is an aggregated snapshot of the per-shard counters.
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
	// Shards is the stripe count; MaxShardEntries/MinShardEntries are
	// the most and least populated stripes' entry counts — a skew gauge
	// for the key-hash distribution.
	Shards          int
	MaxShardEntries int
	MinShardEntries int
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
	inList     bool
}

type shard[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	inUse   int64
	entries map[K]*node[K, V]
	head    *node[K, V] // most recently used
	tail    *node[K, V] // least recently used

	hits, misses, evictions, demotions, duplicates uint64

	// pad spaces shards apart so neighbouring stripes' mutexes do not
	// share a cache line (false sharing would re-serialize them).
	_ [40]byte
}

// Cache is a lock-striped sharded LRU. The zero value is not usable;
// call New.
type Cache[K comparable, V any] struct {
	mask   uint64
	hash   func(K) uint64
	demote func(K, V) int64
	shards []shard[K, V]
}

// defaultShards picks a stripe count for Config.Shards <= 0: the next
// power of two at or above GOMAXPROCS, so every P has a stripe to
// itself under a uniform key mix.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	return p
}

// New builds a cache from cfg. It panics if cfg.Hash is nil — a
// misconfigured cache would silently serialize every key onto shard 0.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	if cfg.Hash == nil {
		panic("shardlru: Config.Hash is required")
	}
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards()
	}
	// Round up to a power of two so the shard index is a mask, then
	// clamp: [1, MaxShards], and no more stripes than budget units —
	// a shard with a zero budget slice could retain nothing.
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	if cfg.Budget > 0 {
		for int64(p) > cfg.Budget && p > 1 {
			p >>= 1
		}
	}
	c := &Cache[K, V]{
		mask:   uint64(p - 1),
		hash:   cfg.Hash,
		demote: cfg.Demote,
		shards: make([]shard[K, V], p),
	}
	if cfg.Budget > 0 {
		base, rem := cfg.Budget/int64(p), cfg.Budget%int64(p)
		for i := range c.shards {
			c.shards[i].budget = base
			if int64(i) < rem {
				c.shards[i].budget++
			}
		}
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*node[K, V])
	}
	return c
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	return &c.shards[c.hash(key)&c.mask]
}

// Get returns the value for key, counting a hit or miss and refreshing
// the entry's recency. Reserved (uncommitted) entries are returned
// like any other — the caller's value type carries whatever
// synchronization a joiner needs (the trace arena's ready channel).
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[key]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(n)
	return n.val, true
}

// Add inserts a committed entry with the given cost, evicting over
// budget. If the key is already present the incumbent wins: the call
// counts a duplicate, refreshes the incumbent's recency and reports
// false — two callers racing the same deterministic computation must
// collapse to one entry, and the loser's count is what reconciles
// lookup arithmetic (misses = adds + duplicates + failures).
func (c *Cache[K, V]) Add(key K, v V, cost int64) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[key]; ok {
		s.duplicates++
		s.moveToFront(n)
		return false
	}
	n := &node[K, V]{key: key, val: v, cost: cost}
	s.entries[key] = n
	s.pushFront(n)
	s.inUse += cost
	s.evictOverBudget(c, n)
	return true
}

// GetOrReserve returns the existing entry (a hit, recency refreshed)
// or inserts v as an uncharged reservation (a miss) and reports
// reserved = true. A reservation is visible to later lookups but sits
// outside the LRU list: it cannot be evicted or demoted until Commit,
// and must be resolved with Commit (success) or Delete (failure).
func (c *Cache[K, V]) GetOrReserve(key K, v V) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[key]; ok {
		s.hits++
		s.moveToFront(n)
		return n.val, false
	}
	s.misses++
	s.entries[key] = &node[K, V]{key: key, val: v}
	return v, true
}

// Commit charges a reservation with its final cost and links it into
// the LRU list, evicting the shard over budget. The committed entry
// itself is exempt from eviction (its caller is about to use it) but
// not from demotion: if it alone busts the shard budget, Demote is
// offered its value last. Committing an absent or already-committed
// key is a no-op (false) — the reservation may have been Deleted.
func (c *Cache[K, V]) Commit(key K, cost int64) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[key]
	if !ok || n.inList {
		return false
	}
	n.cost = cost
	s.pushFront(n)
	s.inUse += cost
	s.evictOverBudget(c, n)
	return true
}

// Delete removes the entry (committed or reserved), refunding its
// charged cost. It reports whether the key was present.
func (c *Cache[K, V]) Delete(key K) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[key]
	if !ok {
		return false
	}
	if n.inList {
		s.unlink(n)
		s.inUse -= n.cost
	}
	delete(s.entries, key)
	return true
}

// WithShardLock runs fn while holding key's shard lock. Values whose
// interior a Demote hook mutates (the trace arena's hot decoded slice)
// are protected by that shard's lock; this is how a caller reads such
// state coherently after the entry may have been demoted, evicted or
// replaced.
func (c *Cache[K, V]) WithShardLock(key K, fn func()) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Len reports the resident entry count, reservations included.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-shard counters, locking one shard at a
// time. The snapshot is internally consistent per shard; across shards
// it is a moving-window aggregate, which is exactly as strong a claim
// as a global-lock cache could make about operations that completed
// while the scrape ran.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Demotions += s.demotions
		st.Duplicates += s.duplicates
		st.CostInUse += s.inUse
		n := len(s.entries)
		st.Entries += n
		if i == 0 || n > st.MaxShardEntries {
			st.MaxShardEntries = n
		}
		if i == 0 || n < st.MinShardEntries {
			st.MinShardEntries = n
		}
		s.mu.Unlock()
	}
	return st
}

// --- shard internals (all called under s.mu) ---

func (s *shard[K, V]) moveToFront(n *node[K, V]) {
	if !n.inList || s.head == n {
		return // reservations are not in the list; nothing to refresh
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *shard[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = nil, s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
	n.inList = true
}

func (s *shard[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
	n.inList = false
}

// evictOverBudget brings the shard back under its budget slice, least
// recently used first: demote entries in place where the hook can
// reclaim cost, then evict whole entries. keep (the entry just added
// or committed) survives eviction even when it alone exceeds the
// budget — its caller is about to use it — but is offered for
// demotion last.
func (s *shard[K, V]) evictOverBudget(c *Cache[K, V], keep *node[K, V]) {
	if s.budget <= 0 {
		return
	}
	if c.demote != nil {
		for n := s.tail; s.inUse > s.budget && n != nil; n = n.prev {
			if n == keep {
				continue
			}
			if r := c.demote(n.key, n.val); r > 0 {
				s.inUse -= r
				n.cost -= r
				s.demotions++
			}
		}
	}
	for s.inUse > s.budget && s.tail != nil && s.tail != keep {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.inUse -= victim.cost
		s.evictions++
	}
	if s.inUse > s.budget && keep != nil && c.demote != nil {
		if r := c.demote(keep.key, keep.val); r > 0 {
			s.inUse -= r
			keep.cost -= r
			s.demotions++
		}
	}
}

// Mix64 finalizes a 64-bit value into a well-distributed hash
// (splitmix64's finalizer). Callers whose keys are already uniform
// content hashes can slice bytes directly; callers combining plain
// fields (seeds, lengths) run each through Mix64.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
