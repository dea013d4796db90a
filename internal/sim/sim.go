// Package sim is the ARGO multi-core platform simulator: a
// discrete-event, trace-driven simulator that executes an explicitly
// parallel program (internal/par) on an ADL platform model with
// scratchpads, a shared-memory interconnect with round-robin/TDM/NoC-port
// arbitration, time-triggered task release, signal/wait synchronization,
// and serialized DMA staging phases.
//
// It substitutes for the project's FPGA-prototyped Xentium and Leon3/iNoC
// platforms (see DESIGN.md): the machine model is exactly the one the
// static analyses assume, so simulated behaviour is directly comparable
// to the WCET bounds — measured makespan must never exceed the bound,
// which experiment E2 quantifies as tightness.
package sim

import (
	"context"
	"fmt"

	"argo/internal/adl"
	"argo/internal/fault"
	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/par"
	"argo/internal/wcet"
)

// segment is one step of a task's isolated execution trace: compute for
// Gap cycles, then (unless last) one shared-memory access.
type segment struct {
	Gap    int64
	Access bool
}

// traceMeter builds task segment traces during functional execution. All
// traces of one run are metered into the one buffer segs (pooled with the
// run state); each finished trace is a capped sub-slice of it, so a later
// append can never write into an earlier trace.
type traceMeter struct {
	model wcet.CostModel
	gap   int64
	segs  []segment
	start int // first segment of the trace being metered
}

func (tm *traceMeter) Ops(n int) { tm.gap += int64(n) * int64(tm.model.OpCycles) }

func (tm *traceMeter) touch(v *ir.Var) {
	if v.Storage == ir.StorageSPM {
		tm.gap += int64(tm.model.SPMLatency)
		return
	}
	tm.segs = append(tm.segs, segment{Gap: tm.gap, Access: true})
	tm.gap = 0
}

func (tm *traceMeter) Read(v *ir.Var)  { tm.touch(v) }
func (tm *traceMeter) Write(v *ir.Var) { tm.touch(v) }

// finish closes the trace being metered and returns it.
func (tm *traceMeter) finish() []segment {
	tm.segs = append(tm.segs, segment{Gap: tm.gap})
	n := len(tm.segs)
	tr := tm.segs[tm.start:n:n]
	tm.start = n
	tm.gap = 0
	return tr
}

// reset empties the buffer for a new run, keeping its storage.
func (tm *traceMeter) reset() {
	tm.segs = tm.segs[:0]
	tm.start = 0
	tm.gap = 0
}

// coreState is one core's cursor through its static program during the
// discrete-event loop (pooled in runState).
type coreState struct {
	time    int64
	entries []par.Entry
	idx     int
	segs    []segment
	segIdx  int
	inTask  int // task id when executing segments, else -1
	// pendingAccess marks that the core has issued a bus request at its
	// current time and yielded before the grant.
	pendingAccess bool
	// nextWaiter links the cores parked on the same signal (-1 ends the
	// list).
	nextWaiter int
}

// event is a runnable core in the event heap, keyed by (time, core):
// the core that would step next in a scan for the least time with ties
// to the lower core index.
type event struct {
	time int64
	core int
}

func (a event) before(b event) bool {
	return a.time < b.time || a.time == b.time && a.core < b.core
}

// eventHeap is a binary min-heap of events.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !q[i].before(q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// aheadOf reports whether no event in h precedes e, i.e. e's core would
// be the one a scan for the least (time, core) picks.
func (h eventHeap) aheadOf(e event) bool {
	return len(h) == 0 || e.before(h[0])
}

// Report is the outcome of one simulation run.
type Report struct {
	// Results are the program's outputs (same shape as ir.Exec.Run).
	Results [][]float64
	// Makespan is the total simulated time including DMA phases.
	Makespan int64
	// ExecSpan is the task-phase span (comparable to syswcet.Makespan).
	ExecSpan int64
	// TaskStart / TaskFinish are actual per-task times (task phase,
	// relative to the end of the DMA prologue).
	TaskStart, TaskFinish []int64
	// BusWaitCycles accumulates arbitration waiting.
	BusWaitCycles int64
	// PrologueCycles / EpilogueCycles are the simulated DMA phases.
	PrologueCycles, EpilogueCycles int64
	// Faults reports what a fault-injected run actually injected (the
	// zero value for uninjected runs).
	Faults fault.Stats
}

// Run simulates the parallel program on the given inputs.
//
// Run is reentrant: p is read-only during simulation (all mutable state
// lives in the interpreter instance and local event-loop structures), so
// one compiled program may be simulated from many goroutines at once.
func Run(p *par.Program, args [][]float64) (*Report, error) {
	return RunContext(context.Background(), p, args)
}

// RunContext is Run with cancellation: ctx is checked between functional
// task executions and periodically inside the discrete-event loop, so a
// cancelled or expired context aborts the simulation and returns
// ctx.Err().
func RunContext(ctx context.Context, p *par.Program, args [][]float64) (*Report, error) {
	return run(ctx, p, args, nil, InterpVM)
}

// RunFaulty simulates the parallel program under deterministic fault
// injection (see internal/fault): shared-memory access-latency jitter
// within each access's modeled interference budget, and task execution
// inflation within (or, in the negative-test mode, beyond) the per-task
// WCET bound. A zero spec is bit-identical to RunContext.
func RunFaulty(ctx context.Context, p *par.Program, args [][]float64, spec fault.Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, p, args, fault.New(spec), InterpVM)
}

func run(ctx context.Context, p *par.Program, args [][]float64, inj *fault.Injector, interp Interp) (*Report, error) {
	nTasks := len(p.Input.Tasks)
	rep := &Report{
		TaskStart:  make([]int64, nTasks),
		TaskFinish: make([]int64, nTasks),
	}

	// Phase 0: functional execution in dependence (program) order to
	// compute results and extract each task's isolated trace. Once a run
	// has published the program's invariant traces, tasks with an
	// input-invariant trace replay them and run un-metered (the fast
	// interpreter path); every other task is metered.
	//
	// The execution engine is the compiled bytecode VM by default, with
	// the tree walker as the oracle — both produce the same
	// traces, results, and errors, so the trace cache is shared between
	// modes.
	cache := cacheFor(p)
	var cp *vm.Program
	if interp == InterpVM {
		cp = cache.vmProgram(p)
	}

	rs := runPool.Get().(*runState)
	defer runPool.Put(rs)
	rs.prepare(p, cp)

	var initErr error
	if cp != nil {
		initErr = rs.vm.Init(args)
	} else {
		initErr = rs.ex.Init(args)
	}
	if initErr != nil {
		return nil, initErr
	}
	traces := rs.traces
	var cached [][]segment
	if pub := cache.traces.Load(); pub != nil {
		cached = *pub
	}
	tm := &rs.meter
	var hits int64
	for _, n := range p.Graph.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var meter ir.Meter
		var tr []segment
		if cached != nil {
			tr = cached[n.ID]
		}
		if tr == nil {
			core := p.Schedule.Placements[n.ID].Core
			tm.model = wcet.ModelFor(p.Platform, core)
			meter = tm
		} else {
			hits++
		}
		var err error
		if cp != nil {
			rs.vm.SetMeter(meter)
			err = rs.vm.ExecRegion(n.ID)
		} else {
			rs.ex.SetMeter(meter)
			err = rs.ex.ExecBlock(n.Stmts)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: task %d: %v", n.ID, err)
		}
		if tr == nil {
			tr = tm.finish()
		}
		traces[n.ID] = tr
	}
	traceCacheHits.Add(hits)
	traceCacheMisses.Add(int64(len(p.Graph.Nodes)) - hits)
	if cached == nil {
		cache.publish(traces)
	}
	if cp != nil {
		rs.vm.SetMeter(nil)
		rep.Results = rs.vm.Results()
	} else {
		rs.ex.SetMeter(nil)
		rep.Results = rs.ex.Results()
	}

	// Fault injection: inflate task compute time within the code-level
	// WCET headroom (or beyond the per-task bound in the negative-test
	// mode). Cached traces are shared across runs, so inflation always
	// works on a private copy; the extra cycles land in the final compute
	// segment, leaving the access pattern untouched.
	var perAccessBudget []int64
	var accessIdx []int
	if inj != nil {
		if inj.Spec().ExecInflation > 0 {
			for t := 0; t < nTasks; t++ {
				core := p.Schedule.Placements[t].Core
				segs := traces[t]
				isolated := int64(len(segs)-1) * rs.accessLat[core]
				for _, s := range segs {
					isolated += s.Gap
				}
				extra := inj.ExecExtra(t, isolated, p.Input.Tasks[t].WCET[core], p.System.TaskBound[t])
				if extra <= 0 {
					continue
				}
				inflated := make([]segment, len(segs))
				copy(inflated, segs)
				inflated[len(inflated)-1].Gap += extra
				traces[t] = inflated
			}
		}
		// Per-access jitter budget: the analysis allows every shared
		// access of task t an interference delay for its contender count;
		// injection may consume whatever the arbitration wait left over.
		perAccessBudget = make([]int64, nTasks)
		for t := range perAccessBudget {
			perAccessBudget[t] = int64(p.Platform.AccessInterferenceDelay(p.System.Contenders[t]))
		}
		accessIdx = make([]int, nTasks)
	}

	// Phase 1: DMA prologue (serialized on the shared DMA engine).
	var dmaTime int64
	for _, op := range p.DMAIns {
		dmaTime += int64(p.Platform.DMACycles(op.Core, op.Bytes))
	}
	rep.PrologueCycles = dmaTime

	// Phase 2: conservative discrete-event execution of the core
	// programs (times relative to the end of the prologue).
	//
	// The observable order is that of a scan which, event by event, steps
	// the runnable core with the least (time, core). Only two steps are
	// visible to other cores: a bus grant (arbitration state) and a
	// signal post (which cores are runnable). Every other step — compute
	// gaps, task release, a wait on a posted signal, an access's
	// completion — touches only its own core, so a core runs them
	// without a scheduling decision and consults the heap of runnable
	// cores only before a visible step, yielding unless it holds the
	// least key. A core that waits on an unposted signal is parked on the
	// signal's waiter list until the post pushes it back.
	//
	// Arbitration: round-robin bus and NoC port grant FIFO (under this
	// event order) and hold the resource for one slot; TDM grants each
	// core only its own periodic slot.
	var busWaits, busFree int64
	var hold, slot, period int64
	tdm := false
	switch {
	case p.Platform.Bus != nil && p.Platform.Bus.Arbitration == adl.ArbTDM:
		tdm = true
		slot = int64(p.Platform.Bus.SlotCycles)
		period = slot * int64(p.Platform.NumCores())
	case p.Platform.Bus != nil:
		hold = int64(p.Platform.Bus.SlotCycles)
	default:
		hold = int64(p.Platform.NoC.WRRWeight * p.Platform.NoC.LinkCycles)
	}
	accessLat := rs.accessLat
	cores := rs.cores
	heap := rs.heap[:0]
	for c := range cores {
		cores[c] = coreState{entries: p.CoreEntries[c], inTask: -1, nextWaiter: -1}
		heap = append(heap, event{core: c}) // equal times in core order: a heap
	}
	signalTime := rs.signalTime
	posted := rs.posted
	waiters := rs.waiters
	events := 0
	for len(heap) > 0 {
		c := heap.pop().core
		cs := &cores[c]
	step:
		for {
			events++
			if events%4096 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if cs.inTask >= 0 {
				// One segment: its compute gap, then (unless last) a bus
				// request at the gap's end time, granted once no other
				// core's event precedes it.
				seg := cs.segs[cs.segIdx]
				if !cs.pendingAccess {
					cs.time += seg.Gap
					if seg.Access && !heap.aheadOf(event{cs.time, c}) {
						cs.pendingAccess = true
						heap.push(event{cs.time, c})
						break step
					}
				}
				if seg.Access {
					req := cs.time
					var grant int64
					if tdm {
						// Next time >= req with (t/slot) mod cores == c.
						grant = req/period*period + int64(c)*slot
						if grant < req {
							grant += period
						}
					} else {
						grant = max(req, busFree)
						busFree = grant + hold
					}
					wait := grant - req
					busWaits += wait
					cs.time = grant + accessLat[c]
					if inj != nil {
						// Jitter the access within its remaining modeled
						// interference budget. Only this core's completion
						// moves — arbitration state is untouched — so other
						// cores never see interference beyond the model.
						t := cs.inTask
						cs.time += inj.AccessDelay(t, accessIdx[t], perAccessBudget[t]-wait)
						accessIdx[t]++
					}
					cs.pendingAccess = false
				}
				cs.segIdx++
				if cs.segIdx == len(cs.segs) {
					rep.TaskFinish[cs.inTask] = cs.time
					cs.inTask = -1
				}
				continue
			}
			if cs.idx >= len(cs.entries) {
				break // finished
			}
			e := cs.entries[cs.idx]
			switch e.Kind {
			case par.EntryWait:
				if !posted[e.Sig] {
					cs.nextWaiter = waiters[e.Sig]
					waiters[e.Sig] = c
					break step // parked until the post
				}
				if t := signalTime[e.Sig]; t > cs.time {
					cs.time = t
				}
			case par.EntrySignal:
				if !heap.aheadOf(event{cs.time, c}) {
					heap.push(event{cs.time, c})
					break step
				}
				posted[e.Sig] = true
				if cs.time > signalTime[e.Sig] {
					signalTime[e.Sig] = cs.time
				}
				for w := waiters[e.Sig]; w >= 0; w = cores[w].nextWaiter {
					heap.push(event{cores[w].time, w})
				}
				waiters[e.Sig] = -1
			case par.EntryCompute:
				if e.Release > cs.time {
					cs.time = e.Release // time-triggered release
				}
				rep.TaskStart[e.Task] = cs.time
				cs.inTask = e.Task
				cs.segs = traces[e.Task]
				cs.segIdx = 0
			}
			cs.idx++
		}
	}
	rs.heap = heap
	for c := range cores {
		if cores[c].idx < len(cores[c].entries) || cores[c].inTask >= 0 {
			return nil, fmt.Errorf("sim: deadlock (waiting on never-posted signal)")
		}
		if cores[c].time > rep.ExecSpan {
			rep.ExecSpan = cores[c].time
		}
	}
	rep.BusWaitCycles = busWaits

	// Phase 3: DMA epilogue.
	var epi int64
	for _, op := range p.DMAOuts {
		epi += int64(p.Platform.DMACycles(op.Core, op.Bytes))
	}
	rep.EpilogueCycles = epi
	rep.Makespan = rep.PrologueCycles + rep.ExecSpan + rep.EpilogueCycles
	if inj != nil {
		rep.Faults = inj.Stats()
	}
	return rep, nil
}

// Violations returns every breach of the analytic bounds in a run as a
// structured report (empty when the run is sound). CheckAgainstBounds is
// the error-valued form that stops at the first breach; this one is what
// fault-injection experiments use so over-bound injection is reported in
// full rather than silently absorbed.
func Violations(p *par.Program, rep *Report) []fault.Violation {
	var out []fault.Violation
	for t := range p.Input.Tasks {
		if rep.TaskStart[t] < p.System.Start[t] {
			out = append(out, fault.Violation{Kind: "task-start", Task: t,
				Observed: rep.TaskStart[t], Bound: p.System.Start[t]})
		}
		if rep.TaskFinish[t] > p.System.Finish[t] {
			out = append(out, fault.Violation{Kind: "task-finish", Task: t,
				Observed: rep.TaskFinish[t], Bound: p.System.Finish[t]})
		}
	}
	if rep.ExecSpan > p.System.Makespan {
		out = append(out, fault.Violation{Kind: "exec-span", Task: -1,
			Observed: rep.ExecSpan, Bound: p.System.Makespan})
	}
	if rep.Makespan > p.BoundMakespan() {
		out = append(out, fault.Violation{Kind: "makespan", Task: -1,
			Observed: rep.Makespan, Bound: p.BoundMakespan()})
	}
	return out
}

// CheckAgainstBounds verifies the soundness contract: every task ran
// within its analyzed window and the measured spans are below the bounds.
func CheckAgainstBounds(p *par.Program, rep *Report) error {
	for t := range p.Input.Tasks {
		if rep.TaskStart[t] < p.System.Start[t] {
			return fmt.Errorf("sim: task %d started at %d before release %d", t, rep.TaskStart[t], p.System.Start[t])
		}
		if rep.TaskFinish[t] > p.System.Finish[t] {
			return fmt.Errorf("sim: task %d finished at %d after bound %d", t, rep.TaskFinish[t], p.System.Finish[t])
		}
	}
	if rep.ExecSpan > p.System.Makespan {
		return fmt.Errorf("sim: exec span %d exceeds system bound %d", rep.ExecSpan, p.System.Makespan)
	}
	if rep.Makespan > p.BoundMakespan() {
		return fmt.Errorf("sim: makespan %d exceeds total bound %d", rep.Makespan, p.BoundMakespan())
	}
	return nil
}
