// Package memo is the one bounded memoization primitive behind every
// result cache tier of the tool-chain: the pass-snapshot caches, the
// code-level WCET bound cache, the shared VM code cache, argod's result
// cache, the session result memo and the coordinator's hot set.
//
// A Cache holds at most the entry count it was constructed with and
// evicts least-recently-used entries beyond it; Get and Put both count
// as a use. Tiers keyed by a content address pass a shard function
// (byte 0 of the SHA-256 key) and the cache splits into up to 64
// independently locked shards, each an exact LRU over its share of the
// capacity, so parallel candidate evaluation does not serialize on one
// lock. Without a shard function the cache is a single exact LRU.
//
// Every tier is a pure accelerator: which entry survives an eviction
// never changes a result, only which later lookups hit.
package memo

import "sync"

const (
	// maxShardBits caps the shard count at 64.
	maxShardBits = 6
	// minPerShard is the smallest share of the capacity a shard gets:
	// smaller caches use fewer shards, so each stays a meaningful LRU.
	minPerShard = 64
	// Entries live in pages of up to pageSize nodes, allocated as a
	// shard fills: a partly full shard wastes less than one page, where
	// a doubling slice would waste up to half its backing array.
	pageBits = 5
	pageSize = 1 << pageBits
)

// Stats is a point-in-time snapshot of a cache's counters. Hits and
// Misses count Get calls; Evictions counts entries dropped to make room.
// Reset clears entries but keeps the counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Cache is a bounded LRU map, safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards  []shard[K, V]
	shardOf func(K) byte
	shift   uint
}

// node is one entry, linked into its shard's recency list by index.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// shard is an exact LRU: index maps keys to node slots, and the slots
// form a doubly linked list from head (most recent) to tail (least
// recent). Slots are reused in place once the shard is full.
type shard[K comparable, V any] struct {
	mu         sync.Mutex
	max        int
	index      map[K]int32
	pages      [][]node[K, V]
	used       int // slots handed out so far
	head, tail int32

	hits, misses, evictions int64
}

// New returns a cache holding at most capacity entries (capacity must
// be positive). shardOf maps a key to a byte spread uniformly over its
// range, such as the first byte of a cryptographic hash; nil keeps the
// whole cache in one shard.
func New[K comparable, V any](capacity int, shardOf func(K) byte) *Cache[K, V] {
	if capacity <= 0 {
		panic("memo: capacity must be positive")
	}
	bits := uint(0)
	if shardOf != nil {
		for bits < maxShardBits && capacity>>(bits+1) >= minPerShard {
			bits++
		}
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], 1<<bits), shardOf: shardOf, shift: 8 - bits}
	n := len(c.shards)
	for i := range c.shards {
		s := &c.shards[i]
		s.max = capacity / n
		if i < capacity%n {
			s.max++
		}
		s.head, s.tail = -1, -1
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[c.shardOf(k)>>c.shift]
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[k]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(i)
	return s.at(i).val, true
}

// Put caches v under k as the most recently used entry. Overwriting a
// cached key never evicts; a new key evicts its shard's least recently
// used entry when the shard is full.
func (c *Cache[K, V]) Put(k K, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[k]; ok {
		s.at(i).val = v
		s.moveToFront(i)
		return
	}
	if s.index == nil {
		s.index = make(map[K]int32)
	}
	var i int32
	if s.used < s.max {
		if s.used == len(s.pages)*pageSize {
			s.pages = append(s.pages, make([]node[K, V], min(pageSize, s.max-s.used)))
		}
		i = int32(s.used)
		s.used++
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.index, s.at(i).key)
		s.evictions++
	}
	*s.at(i) = node[K, V]{key: k, val: v}
	s.pushFront(i)
	s.index[k] = i
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// Reset drops every entry and releases its storage; the counters are
// kept.
func (c *Cache[K, V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.index, s.pages, s.used = nil, nil, 0
		s.head, s.tail = -1, -1
		s.mu.Unlock()
	}
}

// Stats snapshots the counters, summed over the shards.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.index)
		s.mu.Unlock()
	}
	return st
}

// Range calls f on every entry, most recently used first within each
// shard, until f returns false. It does not count as a use. Each shard
// is copied under its lock and f runs after the lock is released, so f
// may call into the cache; it sees each shard as it was when copied.
func (c *Cache[K, V]) Range(f func(K, V) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries := make([]node[K, V], 0, len(s.index))
		for j := s.head; j >= 0; j = s.at(j).next {
			entries = append(entries, *s.at(j))
		}
		s.mu.Unlock()
		for _, n := range entries {
			if !f(n.key, n.val) {
				return
			}
		}
	}
}

func (s *shard[K, V]) at(i int32) *node[K, V] {
	return &s.pages[i>>pageBits][i&(pageSize-1)]
}

func (s *shard[K, V]) unlink(i int32) {
	n := s.at(i)
	if n.prev >= 0 {
		s.at(n.prev).next = n.next
	} else {
		s.head = n.next
	}
	if n.next >= 0 {
		s.at(n.next).prev = n.prev
	} else {
		s.tail = n.prev
	}
}

func (s *shard[K, V]) pushFront(i int32) {
	n := s.at(i)
	n.prev, n.next = -1, s.head
	if s.head >= 0 {
		s.at(s.head).prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

func (s *shard[K, V]) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}
