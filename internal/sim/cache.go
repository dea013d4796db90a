package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"expvar"
	"slices"
	"sync"
	"sync/atomic"

	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/par"
	"argo/internal/wcet"
)

// Trace cache hit/miss counters, exported on /debug/vars (argod) next to
// the WCET bound cache counters.
var (
	traceCacheHits   = expvar.NewInt("argo_trace_cache_hits")
	traceCacheMisses = expvar.NewInt("argo_trace_cache_misses")
)

// Bytecode-VM counters: compiles are per parallel program (compile once,
// execute per run), cache hits/misses count per-run compiled-code
// lookups, and fallbacks count runs that wanted the VM but executed on
// the tree walker (compilation failed or the program has no compiled
// form). All are exported on /debug/vars (argod).
var (
	vmCompiles    = expvar.NewInt("argo_vm_compiles")
	vmCacheHits   = expvar.NewInt("argo_vm_cache_hits")
	vmCacheMisses = expvar.NewInt("argo_vm_cache_misses")
	vmFallbacks   = expvar.NewInt("argo_vm_fallbacks")
)

// TraceCacheCounters returns the process-wide trace cache statistics.
func TraceCacheCounters() (hits, misses int64) {
	return traceCacheHits.Value(), traceCacheMisses.Value()
}

// VMCounters returns the process-wide bytecode-VM statistics.
func VMCounters() (compiles, hits, misses, fallbacks int64) {
	return vmCompiles.Value(), vmCacheHits.Value(), vmCacheMisses.Value(), vmFallbacks.Value()
}

// traceCache caches per-task segment traces and the compiled bytecode of
// one parallel program. The key of a trace is (task, cost model); both
// are implicit here because a task's core — and with it its cost model —
// is fixed by the program's schedule, and the cache lives in the
// program's own cache slot (same lifetime and invalidation as the
// program itself). The compiled bytecode is additionally cost-model
// independent: op charges are abstract units and Read/Write carry the
// variable, so the per-core cost model is applied by the meter, exactly
// as in tree-walk execution.
//
// Only tasks whose meter trace is input-invariant (ir.TraceEnv: no
// data-dependent control flow up to and inside the region) are cached;
// all other tasks are re-metered on every run, so cached and fresh
// simulations are bit-identical by construction.
type traceCache struct {
	invariant []bool // task id -> trace provably input-invariant
	// traces maps task id -> the invariant trace (nil for variant
	// tasks). The first run that meters every task publishes it; until
	// then each run meters everything. Immutable once published.
	traces atomic.Pointer[[][]segment]

	// Compiled bytecode: one vm.Program with one region per task,
	// compiled on first VM-mode run. vmProg stays nil when compilation
	// fails, which demotes every VM-mode run of this program to the tree
	// walker (counted as a fallback).
	vmOnce  sync.Once
	vmReady atomic.Bool
	vmProg  *vm.Program
}

// cacheInitMu serializes first-time cache construction per program (the
// slot itself is a lock-free fast path).
var cacheInitMu sync.Mutex

func cacheFor(p *par.Program) *traceCache {
	slot := p.CacheSlot()
	if c, ok := slot.Load().(*traceCache); ok {
		return c
	}
	cacheInitMu.Lock()
	defer cacheInitMu.Unlock()
	if c, ok := slot.Load().(*traceCache); ok {
		return c
	}
	c := &traceCache{invariant: make([]bool, len(p.Input.Tasks))}
	// Task regions execute in graph order (the same order RunContext
	// replays them), so the staticity environment flows region to region
	// exactly as the interpreter will.
	env := ir.NewTraceEnv(p.IR)
	for _, n := range p.Graph.Nodes {
		c.invariant[n.ID] = env.AdvanceRegion(n.Stmts)
	}
	slot.Store(c)
	return c
}

// vmSharedKey content-addresses the compiled bytecode of p for the
// process-wide code cache: the whole-program IR fingerprint (variable
// table with storage classes in registration order, entry body — equal
// fingerprints imply structurally identical programs) and the region
// partition in task order. CompileRegions reads nothing else, so equal
// keys yield behaviourally identical compiled Programs; sharing the
// Program value is safe because compiled code is immutable and the
// meter-facing surface only reads per-variable data the fingerprint
// covers.
func vmSharedKey(p *par.Program, regions [][]ir.Stmt) vm.CacheKey {
	h := sha256.New()
	fp := wcet.FingerprintProgram(p.IR)
	h.Write(fp[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(regions)))
	h.Write(b[:])
	for _, stmts := range regions {
		rfp := wcet.FingerprintRegion(stmts)
		h.Write(rfp[:])
	}
	var k vm.CacheKey
	h.Sum(k[:0])
	return k
}

// vmProgram returns the program's compiled bytecode, resolving it on the
// first VM-mode run: first from the process-wide shared code cache
// (another par.Program with identical IR and partition already paid the
// compile — sessions, feedback rounds, and argod requests share), else
// by compiling and publishing the result. A nil return means this run
// must fall back to the tree walker.
func (c *traceCache) vmProgram(p *par.Program) *vm.Program {
	if c.vmReady.Load() {
		if c.vmProg == nil {
			vmFallbacks.Add(1)
		} else {
			vmCacheHits.Add(1)
		}
		return c.vmProg
	}
	vmCacheMisses.Add(1)
	c.vmOnce.Do(func() {
		regions := make([][]ir.Stmt, len(p.Input.Tasks))
		for _, n := range p.Graph.Nodes {
			regions[n.ID] = n.Stmts
		}
		key := vmSharedKey(p, regions)
		if cp, ok := vm.SharedLookup(key); ok {
			c.vmProg = cp
			c.vmReady.Store(true)
			return
		}
		vmCompiles.Add(1)
		if cp, err := vm.CompileRegions(p.IR, regions); err == nil {
			c.vmProg = cp
			vm.SharedStore(key, cp)
		}
		c.vmReady.Store(true)
	})
	if c.vmProg == nil {
		vmFallbacks.Add(1)
	}
	return c.vmProg
}

// publish offers the traces of a run that metered every task; the
// invariant ones become the program's cached traces unless a concurrent
// run published first (runs meter identical traces, so either copy is
// correct). The run's traces live in its pooled segment buffer, which the
// next run overwrites, so the published ones are copied out.
func (c *traceCache) publish(traces [][]segment) {
	pub := make([][]segment, len(traces))
	for t, tr := range traces {
		if c.invariant[t] {
			pub[t] = slices.Clone(tr)
		}
	}
	c.traces.CompareAndSwap(nil, &pub)
}

// runState is the pooled mutable state of one simulation run: the
// interpreter (tree walker or bytecode machine), the trace meter and its
// segment buffer, per-core event-loop cursors and isolated shared-access
// latencies, the event heap, and the signal tables. With it, steady-state
// metering and the discrete-event loop perform no allocations and no map
// operations.
type runState struct {
	ex         *ir.Exec
	vm         *vm.Machine
	meter      traceMeter
	traces     [][]segment
	cores      []coreState
	accessLat  []int64
	heap       eventHeap
	signalTime []int64
	posted     []bool
	waiters    []int // signal -> first parked core, -1 if none
}

var runPool = sync.Pool{New: func() any { return &runState{} }}

// prepare readies the pooled state for one run. cp selects the execution
// engine: non-nil binds the bytecode machine, nil the tree walker.
func (rs *runState) prepare(p *par.Program, cp *vm.Program) {
	if cp != nil {
		if rs.vm == nil {
			rs.vm = vm.NewMachine(cp, nil)
		} else {
			rs.vm.Reset(cp)
		}
	} else {
		if rs.ex == nil {
			rs.ex = ir.NewExec(p.IR, nil)
		} else {
			rs.ex.Reset(p.IR)
		}
	}
	rs.meter.reset()
	rs.traces = growClear(rs.traces, len(p.Input.Tasks))
	rs.cores = growClear(rs.cores, p.Platform.NumCores())
	rs.accessLat = growClear(rs.accessLat, p.Platform.NumCores())
	for c := range rs.accessLat {
		rs.accessLat[c] = int64(p.Platform.SharedAccessIsolated(c))
	}
	rs.signalTime = growClear(rs.signalTime, p.Signals)
	rs.posted = growClear(rs.posted, p.Signals)
	rs.waiters = growClear(rs.waiters, p.Signals)
	for s := range rs.waiters {
		rs.waiters[s] = -1
	}
}

// growClear returns s with length n and every element zeroed.
func growClear[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
