package pass

import (
	"crypto/sha256"
	"expvar"
	"sync"
	"sync/atomic"

	"argo/internal/memo"
)

// The pass cache is content-addressed: a key is the SHA-256 of the pass
// name plus the pass's own input fingerprint, so two executions with
// equal keys are guaranteed (by the fingerprint contract) to produce
// identical outputs, and a hit restores a deep copy of the frozen
// snapshot. Like the code-level bound cache in internal/wcet, the cache
// is an accelerator, not a correctness mechanism: a sharded, bounded
// LRU (internal/memo) keeps contention low under parallel candidate
// evaluation and stops a long-running argod from growing it without
// limit.

type cacheAddr [sha256.Size]byte

// cacheAddress derives the cache key for one pass execution.
func cacheAddress(passName string, fp []byte) cacheAddr {
	h := sha256.New()
	h.Write([]byte(passName))
	h.Write([]byte{0})
	h.Write(fp)
	var a cacheAddr
	h.Sum(a[:0])
	return a
}

// defaultCacheEntries bounds a cache built without an explicit size
// (Global among them). Snapshots can be whole cloned IR programs, so
// the bound is much smaller than the wcet bound cache's.
const defaultCacheEntries = 4096

// Cache is a bounded, content-addressed pass-result store. Snapshots
// stored in it must be immutable (the Snapshot/Restore contract
// deep-copies anything mutable). The zero value is ready to use with
// the default bound.
type Cache struct {
	once    sync.Once
	entries int // bound fixed by NewCache; 0: defaultCacheEntries
	store   *memo.Cache[cacheAddr, any]

	// fallback is an optional read-through tier consulted on a local
	// miss (session-private caches fall back to Global). Stores dedupe
	// against it: a snapshot the fallback already holds is not stored
	// again locally — the same content-addressed key yields the same
	// immutable snapshot, so double-storing it only wastes memory and
	// pressures the local bound into needless evictions.
	fallback  *Cache
	deferrals atomic.Int64
}

// Global is the process-wide pass cache shared by every pipeline
// execution (candidates of one optimizer ladder, feedback rounds, and
// argod requests all reuse each other's pass results). Its entry count
// and eviction total are exported as the expvars
// argo_pass_cache_entries and argo_pass_cache_evictions.
var Global = &Cache{}

// NewCache returns a private pass cache bounded to at most maxEntries
// snapshots (maxEntries <= 0: the default bound). Interactive sessions
// use private caches so one session's artifact history cannot evict
// another's, and evicting the session frees its snapshots.
func NewCache(maxEntries int) *Cache {
	return &Cache{entries: max(maxEntries, 0)}
}

func (c *Cache) mem() *memo.Cache[cacheAddr, any] {
	c.once.Do(func() {
		n := c.entries
		if n == 0 {
			n = defaultCacheEntries
		}
		c.store = memo.New[cacheAddr, any](n, func(a cacheAddr) byte { return a[0] })
	})
	return c.store
}

// SetFallback chains a read-through tier behind c: gets consult it on a
// local miss, puts skip snapshots it already holds. Both are counted as
// deferrals — requests this cache deferred to the shared tier instead
// of holding its own copy. Safe because snapshots are immutable and
// restores deep-clone — the tiers can share entries freely.
func (c *Cache) SetFallback(f *Cache) { c.fallback = f }

func (c *Cache) get(a cacheAddr) (any, bool) {
	v, ok := c.mem().Get(a)
	if !ok && c.fallback != nil {
		if v, ok = c.fallback.get(a); ok {
			c.deferrals.Add(1)
		}
	}
	return v, ok
}

func (c *Cache) put(a cacheAddr, v any) {
	if c.fallback != nil {
		if _, held := c.fallback.get(a); held {
			c.deferrals.Add(1)
			return
		}
	}
	c.mem().Put(a, v)
}

// Reset drops every cached pass result (tests and benchmarks measuring
// the cold path). Eviction counters are preserved.
func (c *Cache) Reset() { c.mem().Reset() }

// Len returns the number of cached snapshots.
func (c *Cache) Len() int { return c.mem().Len() }

// CacheStats is a point-in-time snapshot of one cache's size counters
// (hit/miss totals are process-wide, see CacheCounters).
type CacheStats struct {
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	// Deferrals counts stores deduplicated against the fallback tier
	// (zero for caches without one).
	Deferrals int64 `json:"deferrals,omitempty"`
}

// Stats snapshots the cache's entry count, eviction total, and
// fallback-deferral total.
func (c *Cache) Stats() CacheStats {
	st := c.mem().Stats()
	return CacheStats{Entries: st.Entries, Evictions: st.Evictions, Deferrals: c.deferrals.Load()}
}

// The Global cache's size and cumulative evictions, served by argod's
// /debug/vars.
func init() {
	expvar.Publish("argo_pass_cache_entries", expvar.Func(func() any { return Global.Len() }))
	expvar.Publish("argo_pass_cache_evictions", expvar.Func(func() any { return Global.Stats().Evictions }))
}
