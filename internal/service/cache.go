package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"argo/internal/memo"
)

// Outcome classifies how a cache request was served.
type Outcome int

// Cache request outcomes.
const (
	// OutcomeMiss: the value was computed by this request.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the value was already cached.
	OutcomeHit
	// OutcomeDedup: an identical request was already in flight and this
	// one attached to it (singleflight).
	OutcomeDedup
)

// String returns the outcome label used in headers and metrics.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeDedup:
		return "dedup"
	}
	return "miss"
}

// HashKey derives a content address from the canonicalized parts of a
// request: the parts are JSON-encoded in order and hashed with SHA-256.
// Callers must canonicalize free-form inputs first (in particular,
// platform descriptions are re-encoded through the ADL codec so that a
// built-in name and an equivalent inline description hash identically).
func HashKey(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			// Only service-controlled types are hashed; an encode error
			// is a programming bug, not an input error.
			panic(fmt.Sprintf("service: unhashable cache key part: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// call is one in-flight computation followers can attach to.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a bounded, content-addressed result cache with singleflight
// deduplication: Do computes the value for a key at most once at a time,
// concurrent requests for the same key share the one execution, and
// successful results are retained under LRU eviction (internal/memo).
type Cache struct {
	// mu orders cache lookups against in-flight registration, so a
	// request either sees a finished value or attaches to its call.
	mu    sync.Mutex
	store *memo.Cache[string, any]
	calls map[string]*call

	misses atomic.Int64
	dedups atomic.Int64
}

// NewCache returns a cache retaining up to max entries (max <= 0 means
// an unbounded cache).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = math.MaxInt
	}
	return &Cache{store: memo.New[string, any](max, nil), calls: make(map[string]*call)}
}

// Do returns the cached value for key, or computes it with fn. If an
// identical computation is already in flight, Do waits for it and shares
// its result instead of starting a second one. Errors are returned but
// never cached. A follower whose ctx expires while waiting stops waiting
// and returns ctx's error; the in-flight computation itself keeps
// running under the leader's context.
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (any, Outcome, error) {
	c.mu.Lock()
	if val, ok := c.store.Get(key); ok {
		c.mu.Unlock()
		return val, OutcomeHit, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.dedups.Add(1)
		select {
		case <-cl.done:
			return cl.val, OutcomeDedup, cl.err
		case <-ctx.Done():
			return nil, OutcomeDedup, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	c.misses.Add(1)

	cl.val, cl.err = fn()

	c.mu.Lock()
	delete(c.calls, key)
	if cl.err == nil {
		c.store.Put(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, OutcomeMiss, cl.err
}

// Get returns the cached value for key without computing anything (a
// peek — a hit still counts and refreshes the entry's LRU position).
// The coordinator uses it to serve its forwarded-response tier before
// routing.
func (c *Cache) Get(key string) (any, bool) { return c.store.Get(key) }

// Put stores val under key directly, bypassing singleflight (the
// coordinator uses it to retain forwarded replica responses; the value
// was computed remotely, so there is no local call to deduplicate).
func (c *Cache) Put(key string, val any) { c.store.Put(key, val) }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.store.Len() }

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Dedups    int64 `json:"dedups"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// Stats snapshots the cache counters. Misses counts computations, not
// lookups: a lookup that attaches to an in-flight call is a dedup.
func (c *Cache) Stats() Stats {
	st := c.store.Stats()
	return Stats{
		Hits:      st.Hits,
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		Evictions: st.Evictions,
		Entries:   st.Entries,
	}
}
