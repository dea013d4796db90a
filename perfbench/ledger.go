package main

import (
	"math"
	"runtime/metrics"
	"time"

	"argo/internal/ir/vm"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/service"
	"argo/internal/sim"
	"argo/internal/syswcet"
)

// directReps is how often each direct layer call is repeated per job.
const directReps = 3

// direct holds mean per-call times (ms) of direct calls into layer
// public functions, on the artifacts and inputs the workload used.
type direct struct {
	parse, schedRun, sysAnalyze, simRun, vmExec float64
}

// timeMS returns the mean wall time of reps calls of fn in ms.
func timeMS(reps int, fn func()) float64 {
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(time.Millisecond) / float64(reps)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// directCalls times scil.Parse, sched.Run, syswcet.Analyze,
// sim.RunInterp and the VM (NewMachine+Init+ExecEntry) on each job.
func directCalls(jobs []layerJob) direct {
	var parse, sr, sa, run, ex []float64
	for _, j := range jobs {
		if j.art == nil {
			continue
		}
		parse = append(parse, timeMS(directReps, func() { _, _ = scil.Parse(j.source) }))
		s, err := sched.Run(j.art.Input, j.policy)
		if err == nil {
			sr = append(sr, timeMS(directReps, func() { _, _ = sched.Run(j.art.Input, j.policy) }))
			sa = append(sa, timeMS(directReps, func() { _, _ = syswcet.Analyze(j.art.Input, s) }))
		}
		// The first run compiles and caches the program's VM code; the
		// timed runs use the other input sets, as fresh requests do.
		if _, err := sim.RunInterp(j.art.Parallel, j.inputs[0], sim.InterpVM); err == nil {
			for _, in := range j.inputs[1:] {
				in := in
				run = append(run, timeMS(1, func() { _, _ = sim.RunInterp(j.art.Parallel, in, sim.InterpVM) }))
			}
		}
		if prog, err := vm.Compile(j.art.IR); err == nil {
			for _, in := range j.inputs[1:] {
				in := in
				ex = append(ex, timeMS(1, func() {
					m := vm.NewMachine(prog, nil)
					if m.Init(in) == nil {
						_ = m.ExecEntry()
					}
				}))
			}
		}
	}
	return direct{meanOf(parse), meanOf(sr), meanOf(sa), meanOf(run), meanOf(ex)}
}

// hopMS measures the coordinator hop: the same catalogue cells sent as
// /v1/compile through the coordinator and straight to the replica that
// owns them, both answered from cache; the mean difference per cell.
func hopMS(w *world, cells []cell) float64 {
	coord := newClient(0, w.urls[0])
	defer coord.close()
	owners := map[string]*client{}
	defer func() {
		for _, c := range owners {
			c.close()
		}
	}()
	var diffs []float64
	for _, cl := range cells {
		req := cl.request()
		var viaCoord, viaOwner []float64
		owner := ""
		for k := 0; k < directReps; k++ {
			var r opResult
			var sum service.CompileSummary
			t0 := time.Now()
			_, hdr, ok := coord.post(&r, "/v1/compile", req, &sum)
			viaCoord = append(viaCoord, float64(time.Since(t0))/float64(time.Millisecond))
			if !ok {
				return 0
			}
			owner = hdr.Get("X-Argo-Replica")
		}
		oc, ok := owners[owner]
		if !ok {
			oc = newClient(0, owner)
			owners[owner] = oc
		}
		for k := 0; k < directReps; k++ {
			var r opResult
			var sum service.CompileSummary
			t0 := time.Now()
			if _, _, ok := oc.post(&r, "/v1/compile", req, &sum); !ok {
				return 0
			}
			viaOwner = append(viaOwner, float64(time.Since(t0))/float64(time.Millisecond))
		}
		diffs = append(diffs, median(viaCoord)-median(viaOwner))
	}
	return meanOf(diffs)
}

// resultCache returns the hits and lookups of one server's result cache
// between two /debug/vars readings.
func resultCache(before, after map[string]any) (hits, lookups float64) {
	d := func(k string) float64 { return num(after, "service", "cache", k) - num(before, "service", "cache", k) }
	hits = d("hits")
	return hits, hits + d("misses") + d("dedups")
}

// clusterSplit returns the shares of the batch cells served between two
// readings of every server's /debug/vars (the coordinator's first, then
// the replicas') by the coordinator's forward cache, by a replica's
// result cache, and by neither (a compile). replicaHit is the share of
// forwarded cells a replica served from cache.
func clusterSplit(before, after []map[string]any) (forward, replicaHit, miss float64) {
	d := func(path ...string) float64 { return num(after[0], path...) - num(before[0], path...) }
	local, forwards := d("argo_cluster_local_hits"), d("argo_cluster_forwards")
	var hits, lookups float64
	for k := 1; k < len(after); k++ {
		h, l := resultCache(before[k], after[k])
		hits += h
		lookups += l
	}
	return ratio(local, local+forwards), ratio(hits, lookups), ratio(lookups-hits, local+forwards)
}

// ledger fills the per-layer metrics of a traced run. Figures from
// replies come from traced ops only; figures from /debug/vars deltas
// and process counters cover the whole window.
func (b *bench) ledger(w *world, out *outcome, results [][]opResult, elapsed time.Duration,
	before procSnap, mid []map[string]any, after procSnap, rt []metrics.Sample, jobs []layerJob, ex exact) {
	m := out.metrics
	var ops, latAll, sheds, simRuns float64
	var tOps, tLat, tTime, uOps float64
	var d opDetail
	var schedRuns float64
	var tracedCells []cell
	for c := range results {
		for i := range results[c] {
			r := &results[c][i]
			ops++
			latAll += float64(r.lat) / float64(time.Millisecond)
			simRuns += float64(len(r.makespans))
			if r.shed {
				sheds++
			}
			if !r.traced {
				uOps++
				continue
			}
			tOps++
			tLat += float64(r.lat) / float64(time.Millisecond)
			if r.detail == nil {
				continue
			}
			x := r.detail
			for k := range d.rowNS {
				d.rowNS[k] += x.rowNS[k]
			}
			d.encodeNS += x.encodeNS
			d.xformHits += x.xformHits
			d.xformMisses += x.xformMisses
			d.candidates += x.candidates
			d.parses += x.parses
			d.edits += x.edits
			d.changedTasks += x.changedTasks
			schedRuns += float64(x.schedRuns)
			if st, ok := w.state.(*clusterState); ok && len(tracedCells) < 8 {
				tracedCells = append(tracedCells, batchOp(b, st, c, i)[0])
			}
		}
	}
	// Time spent in traced slices: every odd slice of the window.
	for t := time.Duration(0); t < elapsed; t += traceSlice {
		if (t/traceSlice)%2 == 1 {
			tTime += min(traceSlice, elapsed-t).Seconds()
		}
	}
	uTime := elapsed.Seconds() - tTime
	perTraced := func(v float64) float64 { return ratio(v, tOps) }

	v0, v1 := before.vars[0], after.vars[0] // process-wide expvars plus the client-facing server
	delta := func(path ...string) float64 { return num(v1, path...) - num(v0, path...) }
	hitRatio := func(hits, misses string) float64 {
		h := delta(hits)
		return ratio(h, h+delta(misses))
	}
	stage := func(name string) float64 { return delta("service", "latency_us", name, "sum_us") / 1000 }
	serverMS := stage("compile") + stage("optimize") + stage("simulate") + stage("session_edit") + stage("batch")

	dc := directCalls(jobs)

	m["service.overhead_ms_per_op"] = ratio(latAll-serverMS, ops)
	m["service.result_cache_hit_ratio"] = ratio(resultCache(v0, v1))
	m["service.encode_ms_per_op"] = perTraced(float64(d.encodeNS) / 1e6)
	m["service.response_kb_per_op"] = ex.respKB
	m["service.shed_per_op"] = ratio(sheds, ops)

	m["scil.parse_ms_per_op"] = dc.parse * perTraced(float64(d.parses))
	for k, name := range rowNames {
		m[name] = perTraced(float64(d.rowNS[k]) / 1e6)
	}
	m["transform.cache_hit_ratio"] = ratio(float64(d.xformHits), float64(d.xformHits+d.xformMisses))
	m["htg.tasks_per_op"] = ex.tasks
	m["wcet.memo_hit_ratio"] = hitRatio("argo_wcet_cache_hits", "argo_wcet_cache_misses")
	m["sched.run_ms_per_op"] = dc.schedRun * perTraced(schedRuns)
	m["syswcet.analyze_ms_per_op"] = dc.sysAnalyze * perTraced(schedRuns)
	m["core.feedback_rounds_per_op"] = ex.rounds
	m["core.optimize_candidates_per_op"] = perTraced(float64(d.candidates))
	m["core.optimize_ms_per_op"] = ratio(stage("optimize"), ops)
	m["pass.runs_per_op"] = ex.passRuns
	m["pass.cache_hit_ratio"] = hitRatio("argo_pass_cache_hits", "argo_pass_cache_misses")
	m["pass.cache_entries_end"] = num(v1, "argo_pass_cache_entries")

	simServer := ratio(stage("simulate"), simRuns)
	m["sim.server_ms_per_run"] = simServer
	m["sim.run_ms_per_run"] = dc.simRun
	m["vm.exec_ms_per_run"] = dc.vmExec
	m["sim.trace_cache_hit_ratio"] = hitRatio("argo_trace_cache_hits", "argo_trace_cache_misses")
	m["sim.trace_memo_hit_ratio"] = hitRatio("argo_trace_memo_hits", "argo_trace_memo_misses")
	m["vm.code_cache_hit_ratio"] = hitRatio("argo_vm_cache_hits", "argo_vm_cache_misses")
	m["vm.compiles_per_op"] = ratio(delta("argo_vm_compiles"), ops)

	m["session.server_edit_ms"] = ratio(stage("session_edit"), delta("service", "latency_us", "session_edit", "count"))
	skipped := delta("argo_session_passes_skipped")
	m["session.passes_skipped_ratio"] = ratio(skipped, skipped+delta("argo_session_passes_reran"))
	m["session.memo_hit_ratio"] = ratio(delta("argo_session_memo_hits"), delta("argo_session_edits"))
	m["session.changed_tasks_per_edit"] = ratio(float64(d.changedTasks), float64(d.edits))

	var hop float64
	if len(tracedCells) > 0 {
		hop = hopMS(w, tracedCells)
	}
	m["cluster.hop_ms_per_cell"] = hop
	fwd, rep, miss := clusterSplit(before.vars, after.vars)
	m["cluster.forward_local_hit_ratio"] = fwd
	m["cluster.replica_hit_ratio"] = rep
	m["cluster.cell_miss_ratio"] = miss
	if _, ok := w.state.(*clusterState); ok && mid != nil {
		// A split that moves between the halves of the window means the
		// caches were still filling: the window did not measure a steady
		// state.
		f1, r1, m1 := clusterSplit(before.vars, mid)
		f2, r2, m2 := clusterSplit(mid, after.vars)
		m["cluster.split_drift"] = max(math.Abs(f2-f1), math.Abs(r2-r1), math.Abs(m2-m1))
	}
	m["cluster.replica_errors_per_op"] = ratio(delta("argo_cluster_replica_errors"), ops)

	gcCPU := rt[2].Value.Float64() - before.gcCPU
	totalCPU := rt[3].Value.Float64() - before.totalCPU
	m["runtime.gc_cpu_share"] = ratio(gcCPU, totalCPU)
	m["runtime.gc_cycles_per_op"] = ratio(float64(after.gcCycles-before.gcCycles), ops)

	// Everything the rows of ledgerSum do not cover of a traced op's
	// latency; simulation is charged per run, so scale it to an op.
	attributed := simServer * ratio(simRuns, ops)
	for _, name := range ledgerSum {
		if name != "sim.server_ms_per_run" {
			attributed += m[name]
		}
	}
	m["unattributed_ms_per_op"] = perTraced(tLat) - attributed
	m["tracing.throughput_ratio"] = ratio(ratio(tOps, tTime), ratio(uOps, uTime))
}
