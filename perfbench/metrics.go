package main

// metric is one named figure the benchmark reports. End-to-end metrics
// carry the bound by which a change may worsen them (a share of the
// parent's median); per-layer metrics name the end-to-end metric they
// are expected to move and the workloads on which they matter.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the allowed worsening of the median, as a share of the
	// parent's median (end-to-end metrics only).
	Bound float64
	// Moves and On document the layer→end-to-end mapping (per-layer
	// metrics only).
	Moves string
	On    string
}

// endToEnd are the metrics a user of argod sees, measured with tracing
// off. Every workload reports all of them.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.1},
	{Name: "retained_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "wcet_speedup_geomean", Unit: "x", Better: "higher", Bound: 0.2},
	{Name: "bound_tightness_geomean", Unit: "x", Better: "lower", Bound: 0.1},
}

const (
	onCold    = "cold-compile"
	onHot     = "hot-simulate"
	onSession = "session-edit"
	onCluster = "cluster-batch"
	onAll     = "all"
)

// perLayer is the ledger of the traced run: one row per layer figure,
// named <module>.<figure>. Rows marked in ledgerSum add up, together
// with unattributed_ms_per_op, to the client-observed latency.
var perLayer = []metric{
	{Name: "service.overhead_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onHot + "," + onCluster},
	{Name: "service.result_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p95_ms", On: onHot + "," + onCluster},
	{Name: "service.encode_ms_per_op", Unit: "ms", Better: "lower", Moves: "alloc_kb_per_op", On: onHot + "," + onCluster},
	{Name: "service.response_kb_per_op", Unit: "KiB", Better: "lower", Moves: "alloc_kb_per_op", On: onHot + "," + onCluster},
	{Name: "service.shed_per_op", Unit: "ratio", Better: "lower", Moves: "failed", On: onAll},
	{Name: "scil.parse_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold},
	{Name: "scil.check_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold},
	{Name: "ir.lower_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold},
	{Name: "transform.ms_per_op", Unit: "ms", Better: "lower", Moves: "throughput_ops_s", On: onCold},
	{Name: "transform.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s", On: onCold},
	{Name: "htg.build_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "htg.tasks_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "wcet.annotate_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "wcet.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "sched.pass_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onCold + "," + onSession},
	{Name: "sched.run_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onCold + "," + onSession},
	{Name: "syswcet.analyze_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onCold + "," + onSession},
	{Name: "core.feedback_rounds_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "core.optimize_candidates_per_op", Unit: "count", Better: "lower", Moves: "latency_p95_ms", On: onCold},
	{Name: "core.optimize_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onCold},
	{Name: "par.build_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold + "," + onSession},
	{Name: "pass.other_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onCold},
	{Name: "pass.runs_per_op", Unit: "count", Better: "lower", Moves: "latency_p95_ms", On: onCold},
	{Name: "pass.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p95_ms", On: onCold},
	{Name: "pass.cache_entries_end", Unit: "count", Better: "lower", Moves: "retained_heap_mb", On: onCold},
	{Name: "sim.server_ms_per_run", Unit: "ms", Better: "lower", Moves: "throughput_ops_s", On: onHot},
	{Name: "sim.run_ms_per_run", Unit: "ms", Better: "lower", Moves: "throughput_ops_s", On: onHot},
	{Name: "vm.exec_ms_per_run", Unit: "ms", Better: "lower", Moves: "throughput_ops_s", On: onHot},
	{Name: "sim.trace_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onHot},
	{Name: "sim.trace_memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onHot},
	{Name: "vm.code_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onHot},
	{Name: "vm.compiles_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms", On: onHot},
	{Name: "session.server_edit_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onSession},
	{Name: "session.passes_skipped_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onSession},
	{Name: "session.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms", On: onSession},
	{Name: "session.changed_tasks_per_edit", Unit: "count", Better: "lower", Moves: "latency_p50_ms", On: onSession},
	{Name: "cluster.hop_ms_per_cell", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: onCluster},
	{Name: "cluster.forward_local_hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s", On: onCluster},
	{Name: "cluster.replica_hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s", On: onCluster},
	{Name: "cluster.cell_miss_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p95_ms", On: onCluster},
	{Name: "cluster.split_drift", Unit: "ratio", Better: "lower", Moves: "latency_p95_ms", On: onCluster},
	{Name: "cluster.replica_errors_per_op", Unit: "ratio", Better: "lower", Moves: "latency_p95_ms", On: onCluster},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: "cpu_ms_per_op", On: onAll},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower", Moves: "retained_heap_mb", On: onAll},
	{Name: "unattributed_ms_per_op", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: onAll},
	{Name: "tracing.throughput_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s", On: onAll},
}

// ledgerSum lists the self-time rows that, with unattributed_ms_per_op,
// partition the mean client-observed latency of a traced op.
var ledgerSum = []string{
	"service.overhead_ms_per_op",
	"scil.parse_ms_per_op",
	"scil.check_ms_per_op",
	"ir.lower_ms_per_op",
	"transform.ms_per_op",
	"htg.build_ms_per_op",
	"wcet.annotate_ms_per_op",
	"sched.pass_ms_per_op",
	"core.optimize_ms_per_op",
	"par.build_ms_per_op",
	"pass.other_ms_per_op",
	"sim.server_ms_per_run", // scaled by runs per op when summed
}

// exactMetrics repeat bit for bit across runs of one seed: they are
// computed over the seeded prefix of each client's op stream, from
// simulated time and reply contents only. exactOn names the one
// exception.
var exactMetrics = []string{
	"wcet_speedup_geomean",
	"bound_tightness_geomean",
	"pass.runs_per_op",
	"core.feedback_rounds_per_op",
	"htg.tasks_per_op",
	"service.response_kb_per_op",
}

// exactOn reports whether exact metric name repeats on workload. On
// cluster-batch the coordinator's and the replicas' LRU caches are
// smaller than the catalogue, so which cells miss, and with them the
// pass rollups pass.runs_per_op counts, depends on how the two clients'
// batches interleave.
func exactOn(workload, name string) bool {
	return !(workload == onCluster && name == "pass.runs_per_op")
}
