package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"argo/internal/ir/vm"
	"argo/internal/pass"
	"argo/internal/service"
	"argo/internal/wcet"
	"argo/pkg/argo"
)

// traceSlice is the length of the alternating untraced/traced slices of
// a traced run; comparing the two halves gives the tracing overhead.
const traceSlice = 500 * time.Millisecond

// bench is one benchmark run: one workload, one seed.
type bench struct {
	wl        *workload
	seed      int64
	dur       time.Duration
	clients   int
	prefix    int  // ops per client whose figures must repeat exactly
	trace     bool // traced run: per-layer ledger instead of end-to-end metrics
	setupReps int  // set-ups timed; setup_s is their median
}

// opRNG is the deterministic generator of op i of client c: every op
// can be regenerated from the seed alone, so the oracle re-derives the
// job instead of the benchmark keeping it in memory.
func (b *bench) opRNG(c, i int) *rand.Rand {
	x := uint64(b.seed)*0x9E3779B97F4A7C15 ^ uint64(c+1)*0xBF58476D1CE4E5B9 ^ uint64(i+1)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return rand.New(rand.NewSource(int64(x)))
}

// uid numbers ops uniquely across clients.
func (b *bench) uid(c, i int) int { return i*b.clients + c }

// fp is a decoded result fingerprint (SHA-256).
type fp [32]byte

func parseFP(s string) (fp, error) {
	var f fp
	if len(s) != 64 {
		return f, fmt.Errorf("malformed fingerprint %q", s)
	}
	_, err := hex.Decode(f[:], []byte(s))
	return f, err
}

// opResult is what the client keeps about one completed op. Detail is
// filled only for prefix and traced ops.
type opResult struct {
	lat       time.Duration
	fail      string
	shed      bool
	traced    bool
	prefix    bool
	fps       []fp    // fingerprints the oracle checks, in reply order
	makespans []int64 // simulated makespans, in reply order
	detail    *opDetail
}

func (r *opResult) failf(format string, args ...any) {
	if r.fail == "" {
		r.fail = fmt.Sprintf(format, args...)
	}
}

// Ledger rows fed from the per-pass rollups of compile summaries.
const (
	rowCheck = iota
	rowLower
	rowTransform
	rowHTG
	rowAnnotate
	rowSched
	rowPar
	rowOther
	nRows
)

var rowNames = [nRows]string{
	"scil.check_ms_per_op", "ir.lower_ms_per_op", "transform.ms_per_op",
	"htg.build_ms_per_op", "wcet.annotate_ms_per_op", "sched.pass_ms_per_op",
	"par.build_ms_per_op", "pass.other_ms_per_op",
}

func passRow(name string) int {
	switch name {
	case "check":
		return rowCheck
	case "lower":
		return rowLower
	case "build-htg":
		return rowHTG
	case "annotate":
		return rowAnnotate
	case "schedule":
		return rowSched
	case "par-build":
		return rowPar
	}
	if transformPass[name] {
		return rowTransform
	}
	return rowOther
}

// transformPass names the predictability transformation passes.
var transformPass = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range argo.TransformPassNames() {
		m[n] = true
	}
	return m
}()

// opDetail holds the figures of one op that the exact metrics and the
// ledger need.
type opDetail struct {
	speedups     []float64
	tight        []float64 // total bound / simulated makespan
	rounds       int
	tasks        int
	respBytes    int
	encodeNS     int64
	passRuns     int
	schedRuns    int
	rowNS        [nRows]int64
	xformHits    int
	xformMisses  int
	candidates   int
	parses       int
	edits        int
	changedTasks int
}

// summary is one compile summary found in a reply. fresh marks a
// summary whose pass rollup describes work done for this op (a
// result-cache miss).
type summary struct {
	sum   *service.CompileSummary
	fresh bool
}

// volatile matches the reply fields that differ between two runs of one
// seed: wall times, the per-pass rollups (which passes ran depends on
// which of two concurrent requests filled a shared pass snapshot first),
// and the cache tier and replica URL of a batch cell. Response sizes
// are taken with these removed, so they depend on the jobs alone.
var volatile = regexp.MustCompile(`(?s)"passes": \[[^\]]*\],?|"(wall_ns|outcome|replica)": ("[^"]*"|[0-9]+)`)

// observe records what a decoded reply says about the op.
func observe(r *opResult, body []byte, reply any, sums []summary) {
	for _, s := range sums {
		f, err := parseFP(s.sum.Fingerprint)
		if err != nil {
			r.failf("%v", err)
			continue
		}
		r.fps = append(r.fps, f)
	}
	if !r.prefix && !r.traced {
		return
	}
	d := r.detail
	if d == nil {
		d = &opDetail{}
		r.detail = d
	}
	if r.prefix {
		d.respBytes += len(volatile.ReplaceAll(body, nil))
	}
	if r.traced {
		t0 := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reply)
		d.encodeNS += time.Since(t0).Nanoseconds()
	}
	for _, s := range sums {
		d.speedups = append(d.speedups, s.sum.WCETSpeedup)
		d.rounds += s.sum.FeedbackRounds
		d.tasks += len(s.sum.Tasks)
		if !s.fresh {
			continue
		}
		d.parses++
		for _, p := range s.sum.Passes {
			d.passRuns += p.Runs
			if p.Pass == "schedule" {
				d.schedRuns += p.Runs
			}
			d.rowNS[passRow(p.Pass)] += p.WallNS
			if transformPass[p.Pass] {
				d.xformHits += p.CacheHits
				d.xformMisses += p.CacheMisses
			}
		}
	}
}

// client is one closed-loop caller with its own single connection.
type client struct {
	id   int
	hc   *http.Client
	base string
}

// opTimeout fails an op that has no reply after this long, so a hung
// server ends the run instead of stalling it.
const opTimeout = 30 * time.Second

func newClient(id int, base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{id: id, hc: &http.Client{Transport: tr, Timeout: opTimeout}, base: base}
}

// post sends a JSON request, checks for 200 and decodes the reply into
// out. A failure is recorded on r.
func (c *client) post(r *opResult, path string, body, out any) ([]byte, http.Header, bool) {
	req, err := json.Marshal(body)
	if err != nil {
		r.failf("%s: encode request: %v", path, err)
		return nil, nil, false
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(req))
	if err != nil {
		r.failf("%s: %v", path, err)
		return nil, nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		r.failf("%s: read reply: %v", path, err)
		return nil, nil, false
	case resp.StatusCode == http.StatusTooManyRequests:
		r.shed = true
		r.failf("%s: shed (429)", path)
		return nil, nil, false
	case resp.StatusCode != http.StatusOK:
		r.failf("%s: status %d: %.200s", path, resp.StatusCode, data)
		return nil, nil, false
	}
	if err := json.Unmarshal(data, out); err != nil {
		r.failf("%s: decode reply: %v", path, err)
		return nil, nil, false
	}
	return data, resp.Header, true
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// world is the system under test for one run: in-process argod servers
// on loopback listeners, and the clients that drive them.
type world struct {
	urls    []string // urls[0] is the server the clients call
	https   []*http.Server
	served  sync.WaitGroup
	clients []*client
	state   any // workload-specific set-up state
}

// startServer serves s.Handler() on a fresh loopback port.
func (w *world) startServer(cfg service.Config) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	s := service.NewServer(cfg)
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	url := "http://" + ln.Addr().String()
	w.urls = append(w.urls, url)
	w.https = append(w.https, hs)
	return url, nil
}

// close stops every server and waits for their goroutines.
func (w *world) close() {
	for _, c := range w.clients {
		c.close()
	}
	for _, hs := range w.https {
		_ = hs.Close()
	}
	w.served.Wait()
}

// resetProcessCaches empties the process-wide caches the program keeps
// beside each server (pass snapshots, WCET memo, shared VM code), so
// every set-up and every oracle starts from the same cold state.
func resetProcessCaches() {
	pass.Global.Reset()
	wcet.ResetCache()
	vm.SharedReset()
}

// setup builds the world setupReps times and keeps the last one; the
// set-up time is the median, each from cold process caches.
func (b *bench) setup() (*world, float64, error) {
	var times []float64
	var w *world
	for rep := 0; rep < b.setupReps; rep++ {
		if w != nil {
			w.close()
		}
		resetProcessCaches()
		runtime.GC()
		t0 := time.Now()
		w = &world{}
		err := b.wl.setup(b, w)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return w, median(times), nil
}

// procSnap is a point-in-time reading of the process counters.
type procSnap struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	vars       []map[string]any
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) snapshot(w *world) (procSnap, error) {
	s := procSnap{cpu: processCPU()}
	rs := readRuntime()
	s.allocBytes = rs[0].Value.Uint64()
	s.gcCycles = rs[1].Value.Uint64()
	s.gcCPU = rs[2].Value.Float64()
	s.totalCPU = rs[3].Value.Float64()
	if b.trace {
		for _, u := range w.urls {
			v, err := fetchVars(u)
			if err != nil {
				return s, err
			}
			s.vars = append(s.vars, v)
		}
	}
	return s, nil
}

func fetchVars(url string) (map[string]any, error) {
	resp, err := (&http.Client{Timeout: opTimeout}).Get(url + "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("debug/vars: %w", err)
	}
	return v, nil
}

// num reads a number at a key path of a decoded /debug/vars document
// (0 when absent).
func num(v map[string]any, path ...string) float64 {
	var cur any = v
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}

// window runs the closed loop: every client sends its next op as soon
// as the previous one completes, until the run length has passed and
// its seeded prefix is complete. A traced run also reads /debug/vars
// halfway through (mid), so the ledger can compare the two halves.
func (b *bench) window(w *world) (results [][]opResult, elapsed time.Duration, mid []map[string]any) {
	results = make([][]opResult, b.clients)
	start := time.Now()
	deadline := start.Add(b.dur)
	halfway := start.Add(b.dur / 2)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				now := time.Now()
				if i >= b.prefix && !now.Before(deadline) {
					return
				}
				if c == 0 && b.trace && mid == nil && !now.Before(halfway) {
					if s, err := b.snapshot(w); err == nil {
						mid = s.vars
					}
				}
				r := opResult{prefix: i < b.prefix}
				r.traced = b.trace && (now.Sub(start)/traceSlice)%2 == 1
				b.wl.do(b, w, w.clients[c], i, &r)
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	return results, time.Since(start), mid
}

// outcome is the result of one run.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	failures          []string
}

// run performs set-up, the measured window, the end-of-run readings and
// the correctness oracle.
func (b *bench) run(ctx context.Context) (*outcome, error) {
	w, setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer w.close()

	runtime.GC()
	before, err := b.snapshot(w)
	if err != nil {
		return nil, err
	}
	results, elapsed, mid := b.window(w)
	after, err := b.snapshot(w)
	if err != nil {
		return nil, err
	}
	// Two collections: the first moves pooled objects to the pools'
	// victim caches, the second frees them, leaving what the caches keep.
	runtime.GC()
	runtime.GC()
	rt := readRuntime()
	retained := float64(rt[4].Value.Uint64()) / (1 << 20)

	// The oracle runs from cold process caches so that it shares no
	// cached state with the servers it checks.
	resetProcessCaches()
	jobs, err := b.wl.verify(ctx, b, w, results)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	out := &outcome{metrics: map[string]float64{}}
	var lats []float64
	for c := range results {
		for i := range results[c] {
			r := &results[c][i]
			out.attempted++
			if r.fail != "" {
				out.failed++
				if len(out.failures) < 10 {
					out.failures = append(out.failures, fmt.Sprintf("client %d op %d: %s", c, i, r.fail))
				}
			}
			lats = append(lats, float64(r.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lats)
	ops := float64(out.attempted)

	ex := exactFigures(results)
	out.metrics["wcet_speedup_geomean"] = ex.speedup
	out.metrics["bound_tightness_geomean"] = ex.tightness
	if b.trace {
		b.ledger(w, out, results, elapsed, before, mid, after, rt, jobs, ex)
		return out, nil
	}
	m := out.metrics
	m["setup_s"] = setupS
	m["throughput_ops_s"] = ops / elapsed.Seconds()
	m["latency_p50_ms"] = percentile(lats, 0.50)
	m["latency_p95_ms"] = percentile(lats, 0.95)
	m["cpu_ms_per_op"] = float64(after.cpu-before.cpu) / float64(time.Millisecond) / ops
	m["alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1024 / ops
	m["retained_heap_mb"] = retained
	return out, nil
}

// exact holds the figures computed over the seeded prefix of every
// client: they depend only on the jobs, never on timing.
type exact struct {
	speedup, tightness              float64
	passRuns, rounds, tasks, respKB float64
}

func exactFigures(results [][]opResult) exact {
	var sp, ti []float64
	var ops, runs, rounds, tasks, bytes float64
	for c := range results {
		for i := range results[c] {
			r := &results[c][i]
			if !r.prefix || r.detail == nil {
				continue
			}
			d := r.detail
			ops++
			sp = append(sp, d.speedups...)
			ti = append(ti, d.tight...)
			runs += float64(d.passRuns)
			rounds += float64(d.rounds)
			tasks += float64(d.tasks)
			bytes += float64(d.respBytes)
		}
	}
	if ops == 0 {
		return exact{}
	}
	return exact{
		speedup:   geomean(sp),
		tightness: geomean(ti),
		passRuns:  runs / ops,
		rounds:    rounds / ops,
		tasks:     tasks / ops,
		respKB:    bytes / 1024 / ops,
	}
}
