package vm

import (
	"expvar"

	"argo/internal/memo"
)

// Shared compiled-code cache. CompileRegions is the dominant cold-path
// cost of the simulator's first run over a parallel program; identical
// IR compiled under the same region partition yields behaviourally
// identical code, so compiled Programs are shared process-wide — across
// par.Programs, interactive sessions, and argod requests — the same way
// internal/pass shares structural pass results.
//
// The cache is content-addressed: the caller derives the CacheKey from
// a fingerprint of everything compilation reads (internal/sim hashes
// the IR program fingerprint — vars in registration order with storage
// classes, the entry body — plus the per-region statement fingerprints
// in task order). Equal keys therefore imply equal compiled behaviour.
// Sharing the *Program value itself is safe because a compiled Program
// is immutable and safe for concurrent Machines by construction.
//
// Like the pass cache, this is an accelerator, not a correctness
// mechanism: a bounded LRU (internal/memo) of 256 programs. Compiled
// programs are a few instructions per source statement; hundreds of
// cached programs are cheap, unbounded growth in a long-running argod
// is not.

// CacheKey content-addresses one compiled Program (SHA-256 of the
// compilation inputs, computed by the caller).
type CacheKey [32]byte

var sharedCode = memo.New[CacheKey, *Program](256, func(k CacheKey) byte { return k[0] })

// SharedLookup returns the compiled Program cached under k, if any.
func SharedLookup(k CacheKey) (*Program, bool) { return sharedCode.Get(k) }

// SharedStore caches p under k. At capacity the least recently used
// program is evicted; which compiled program survives never affects
// results, only which future compilations are skipped.
func SharedStore(k CacheKey, p *Program) { sharedCode.Put(k, p) }

// SharedLen returns the number of cached compiled programs.
func SharedLen() int { return sharedCode.Len() }

// SharedReset drops every cached compiled program (tests and cold-path
// benchmarks). The eviction counter is preserved.
func SharedReset() { sharedCode.Reset() }

// Shared-cache observability, served by argod's /debug/vars.
func init() {
	expvar.Publish("argo_vm_shared_entries", expvar.Func(func() any { return sharedCode.Len() }))
	expvar.Publish("argo_vm_shared_evictions", expvar.Func(func() any { return sharedCode.Stats().Evictions }))
}
