package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"argo/internal/conc"
	"argo/internal/scil"
	"argo/internal/service"
	"argo/pkg/argo"
)

// workload is one seeded traffic mix against argod.
type workload struct {
	name, why string
	// setup starts the servers and warms them; it is timed as setup_s.
	setup func(b *bench, w *world) error
	// do runs op i of client c and fills r (latency, failure, reply
	// figures). Ops are regenerated from (seed, c, i) alone.
	do func(b *bench, w *world, c *client, i int, r *opResult)
	// verify is the correctness oracle: it recomputes every reply
	// in-process, marks mismatching ops failed, fills the simulated
	// tightness of prefix ops the workload did not simulate, and returns
	// compiled jobs for the ledger's direct layer calls.
	verify func(ctx context.Context, b *bench, w *world, results [][]opResult) ([]layerJob, error)
}

var workloads = []*workload{coldCompile, hotSimulate, sessionEdit, clusterBatch}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// layerJob is a compiled job the ledger times direct layer calls on.
type layerJob struct {
	source string
	policy argo.Policy
	art    *argo.Artifacts
	inputs [][][]float64 // at least two input sets
}

// opRef names one op of the results matrix.
type opRef struct{ c, i int }

func allOps(results [][]opResult) []opRef {
	var refs []opRef
	for c := range results {
		for i := range results[c] {
			refs = append(refs, opRef{c, i})
		}
	}
	return refs
}

// coldOpts is the compile configuration argod derives from a request
// without policy or max_tasks, with the pass cache off: the reference
// the oracle compares replies against.
func coldOpts(entry string, args []argo.ArgSpec, p *argo.PlatformDesc) argo.Options {
	opt := argo.DefaultOptions(entry, args, p)
	opt.Passes.NoCache = true
	return opt
}

func argsJSON(args []argo.ArgSpec) []service.ArgSpecJSON {
	out := make([]service.ArgSpecJSON, len(args))
	for i, a := range args {
		out[i] = service.FromArgSpec(a)
	}
	return out
}

func checkFP(r *opResult, k int, want string) {
	if k >= len(r.fps) {
		r.failf("reply carries %d fingerprints, oracle expects more", len(r.fps))
		return
	}
	got := r.fps[k]
	w, err := parseFP(want)
	if err != nil || got != w {
		r.failf("fingerprint %d: reply %x, oracle %s", k, got[:8], want[:16])
	}
}

func addTight(r *opResult, bound, makespan int64) {
	if r.detail != nil && makespan > 0 {
		r.detail.tight = append(r.detail.tight, float64(bound)/float64(makespan))
	}
}

// warmCompile posts one compile and fails on any error.
func warmCompile(c *client, req service.CompileRequest) error {
	var r opResult
	var sum service.CompileSummary
	if _, _, ok := c.post(&r, "/v1/compile", req, &sum); !ok {
		return fmt.Errorf("warm-up compile: %s", r.fail)
	}
	return nil
}

// --- cold-compile -----------------------------------------------------------

var (
	sweepPlatforms = []string{"xentium4", "xentium8", "leon3-2x2", "leon3-4x4", "hetero-2f2s", "xentium4-tdm"}
	genConfigs     = []scil.GenConfig{
		scil.DefaultGenConfig(),
		{MaxDepth: 4, MaxStmts: 6, Matrices: 4, Rows: 8, Cols: 8},
	}
)

// coldJob is one never-seen job: a generated program on a built-in
// platform, or a use case on a perturbed built-in platform.
type coldJob struct {
	optimize bool
	uc       *argo.UseCase
	req      service.CompileRequest
	source   string
	opt      argo.Options
	inputs   [][]float64
	// fresh is a second input set that no request and no oracle run
	// uses, for the ledger's timed simulation.
	fresh [][]float64
}

// coldMix is the repeating pattern of cold-compile op classes: half
// generated programs (two sizes) and half use-case platform sweeps, one
// op in four an optimize. A fixed pattern keeps the mix of a run, and of
// its seeded prefix, the same for every seed; the seed draws the
// programs, platforms and parameters.
var coldMix = []struct {
	generated, optimize bool
	size                int
}{
	{true, false, 0}, {false, false, 0}, {true, false, 1}, {false, false, 0},
	{true, false, 0}, {false, false, 0}, {true, true, 1}, {false, true, 0},
}

func coldJobFor(b *bench, c, i int) (coldJob, error) {
	rng := b.opRNG(c, i)
	uid := b.uid(c, i)
	class := coldMix[i%len(coldMix)]
	j := coldJob{optimize: class.optimize}
	if class.generated {
		cfg := genConfigs[class.size]
		src := scil.GenerateSource(rand.New(rand.NewSource(rng.Int63())), cfg)
		// A statement naming the op makes every program distinct, so no
		// two ops share a result or a front-end pass.
		j.source = strings.Replace(src, "  r = 0\n", fmt.Sprintf("  r = 0\n  uid%d = %d\n", uid, uid), 1)
		args := []argo.ArgSpec{argo.MatrixArg(cfg.Rows, cfg.Cols)}
		plat := sweepPlatforms[rng.Intn(len(sweepPlatforms))]
		j.req = service.CompileRequest{Source: j.source, Entry: "fuzz", Args: argsJSON(args), Platform: plat}
		j.opt = coldOpts("fuzz", args, argo.Platform(plat))
		m0 := make([]float64, cfg.Rows*cfg.Cols)
		m1 := make([]float64, cfg.Rows*cfg.Cols)
		for k := range m0 {
			m0[k] = float64((k*7+uid)%11) - 5
			m1[k] = float64((k*5+uid+3)%13) - 6
		}
		j.inputs = [][]float64{m0}
		j.fresh = [][]float64{m1}
	} else {
		// Use cases and platforms rotate, so every run sweeps all pairs.
		ucs := argo.UseCases()
		j.uc = ucs[(i/2)%len(ucs)]
		p := argo.Platform(sweepPlatforms[(i/2/len(ucs))%len(sweepPlatforms)])
		p.Shared.AccessCycles = 6 + rng.Intn(40)
		if rng.Intn(2) == 0 {
			for k := range p.Cores {
				p.Cores[k].OpCycles *= 2
			}
		}
		// Distinct per op: the job is new to the result cache, while the
		// platform-independent front end is shared with other ops.
		p.Shared.SizeBytes += 64 * (uid + 1)
		adl, err := argo.EncodePlatform(p)
		if err != nil {
			return j, fmt.Errorf("encode platform: %w", err)
		}
		j.source = j.uc.Source
		j.req = service.CompileRequest{UseCase: j.uc.Name, PlatformADL: adl}
		dec, err := argo.DecodePlatform(adl)
		if err != nil {
			return j, fmt.Errorf("decode platform: %w", err)
		}
		j.opt = coldOpts(j.uc.Entry, j.uc.Args, dec)
		j.inputs = j.uc.Inputs(b.seed*1_000_003 + int64(uid))
		j.fresh = j.uc.Inputs(ledgerSeed(b, uid, 0))
	}
	if j.optimize {
		// Two clients already occupy both cores; serial candidate
		// evaluation keeps each optimize's pass-cache traffic ordered.
		j.req.Parallelism = 1
		j.opt.Parallelism = 1
	}
	return j, nil
}

var coldCompile = &workload{
	name: "cold-compile",
	why:  "every op is a never-seen compile or optimize: generated programs miss the whole pass ladder, platform sweeps read the front end from pass.Global and write the back end",
	setup: func(b *bench, w *world) error {
		url, err := w.startServer(service.Config{})
		if err != nil {
			return err
		}
		for c := 0; c < b.clients; c++ {
			w.clients = append(w.clients, newClient(c, url))
		}
		// Warm the use-case front ends the platform sweep reads.
		for _, uc := range argo.UseCases() {
			if err := warmCompile(w.clients[0], service.CompileRequest{UseCase: uc.Name}); err != nil {
				return err
			}
		}
		return nil
	},
	do: func(b *bench, w *world, c *client, i int, r *opResult) {
		j, err := coldJobFor(b, c.id, i)
		if err != nil {
			r.failf("%v", err)
			return
		}
		t0 := time.Now()
		if j.optimize {
			var resp service.OptimizeResponse
			body, hdr, ok := c.post(r, "/v1/optimize", j.req, &resp)
			r.lat = time.Since(t0)
			if !ok {
				return
			}
			// The ledger charges an optimize to core.optimize_ms_per_op
			// as a whole: the best candidate's pass rollup is not counted
			// as fresh work, since the other candidates report none.
			observe(r, body, &resp, []summary{{resp.Best, false}})
			if r.detail != nil && hdr.Get("X-Argo-Cache") == "miss" {
				r.detail.candidates += len(resp.History)
			}
			return
		}
		var sum service.CompileSummary
		body, hdr, ok := c.post(r, "/v1/compile", j.req, &sum)
		r.lat = time.Since(t0)
		if !ok {
			return
		}
		observe(r, body, &sum, []summary{{&sum, hdr.Get("X-Argo-Cache") == "miss"}})
	},
	verify: func(ctx context.Context, b *bench, w *world, results [][]opResult) ([]layerJob, error) {
		refs := allOps(results)
		var mu sync.Mutex
		var jobs []layerJob
		_ = conc.ForEach(ctx, b.clients, len(refs), func(k int) {
			ref := refs[k]
			r := &results[ref.c][ref.i]
			if r.fail != "" {
				return
			}
			j, err := coldJobFor(b, ref.c, ref.i)
			if err != nil {
				r.failf("oracle: %v", err)
				return
			}
			var art *argo.Artifacts
			if j.optimize {
				res, err := argo.OptimizeSourceContext(ctx, j.source, j.opt, nil)
				if err != nil {
					r.failf("oracle optimize: %v", err)
					return
				}
				art = res.Best
			} else if art, err = argo.CompileSourceContext(ctx, j.source, j.opt); err != nil {
				r.failf("oracle compile: %v", err)
				return
			}
			checkFP(r, 0, argo.SessionResultFingerprint(art))
			if r.prefix {
				rep, err := argo.SimulateContext(ctx, art, j.inputs)
				if err != nil {
					r.failf("oracle simulate: %v", err)
					return
				}
				addTight(r, art.Bound(), rep.Makespan)
			}
			if r.traced && !j.optimize {
				mu.Lock()
				if len(jobs) < 8 {
					jobs = append(jobs, layerJob{source: j.source, policy: art.Options.Policy, art: art,
						inputs: [][][]float64{j.inputs, j.fresh}})
				}
				mu.Unlock()
			}
		})
		return jobs, nil
	},
}

// --- hot-simulate -----------------------------------------------------------

var hotPlatforms = []string{"xentium4", "leon3-4x4", "hetero-2f2s"}

type hotJob struct {
	uc       *argo.UseCase
	platform string
}

func hotJobs() []hotJob {
	var jobs []hotJob
	for _, uc := range argo.UseCases() {
		for _, p := range hotPlatforms {
			jobs = append(jobs, hotJob{uc, p})
		}
	}
	return jobs
}

// simSeed is the input seed of run k of an op: distinct for every op of
// a run (uid >= 0 and k >= 0 give values >= 1; 0 is the warm-up seed).
func simSeed(b *bench, uid, k int) int64 {
	return b.seed*10_000_000 + int64(uid)*2 + int64(k) + 1
}

// ledgerSeed is the input seed of the ledger's direct simulation s of
// job k: below every simSeed of the run, so no request and no oracle run
// has used it and sim's input memo cannot replay it.
func ledgerSeed(b *bench, k, s int) int64 {
	return b.seed*10_000_000 - 1 - int64(3*k+s)
}

// hotOp returns the index into hotJobs and the input seeds of op i of
// client c. It rotates through the jobs, so every seed simulates the
// same mix; the seed draws the inputs and where the rotation starts.
func hotOp(b *bench, c, i int) (int, []int64) {
	n := len(hotPlatforms) * len(argo.UseCases())
	uid := b.uid(c, i)
	return (uid + int(uint64(b.seed)%uint64(n))) % n, []int64{simSeed(b, uid, 0), simSeed(b, uid, 1)}
}

// sampled reports whether the oracle re-simulates op i in-process (the
// prefix plus a seeded one in eight of the rest).
func sampled(b *bench, r *opResult, c, i int) bool {
	return r.prefix || b.opRNG(c, i).Int63()%8 == 0
}

var hotSimulate = &workload{
	name: "hot-simulate",
	why:  "compiles are result-cache hits after warm-up and every run has fresh input seeds: sim and vm, the cache-hit path and JSON encoding dominate",
	setup: func(b *bench, w *world) error {
		url, err := w.startServer(service.Config{})
		if err != nil {
			return err
		}
		for c := 0; c < b.clients; c++ {
			w.clients = append(w.clients, newClient(c, url))
		}
		for _, j := range hotJobs() {
			var r opResult
			var resp service.SimulateResponse
			req := service.SimulateRequest{
				CompileRequest: service.CompileRequest{UseCase: j.uc.Name, Platform: j.platform},
				Seeds:          []int64{b.seed * 10_000_000},
			}
			if _, _, ok := w.clients[0].post(&r, "/v1/simulate", req, &resp); !ok {
				return fmt.Errorf("warm-up simulate: %s", r.fail)
			}
		}
		return nil
	},
	do: func(b *bench, w *world, c *client, i int, r *opResult) {
		k, seeds := hotOp(b, c.id, i)
		j := hotJobs()[k]
		req := service.SimulateRequest{
			CompileRequest: service.CompileRequest{UseCase: j.uc.Name, Platform: j.platform},
			Seeds:          seeds,
		}
		var resp service.SimulateResponse
		t0 := time.Now()
		body, hdr, ok := c.post(r, "/v1/simulate", req, &resp)
		r.lat = time.Since(t0)
		if !ok {
			return
		}
		observe(r, body, &resp, []summary{{resp.Compile, hdr.Get("X-Argo-Cache") == "miss"}})
		checkRuns(r, resp.Runs, seeds)
	},
	verify: func(ctx context.Context, b *bench, w *world, results [][]opResult) ([]layerJob, error) {
		jobs := hotJobs()
		arts := make([]*argo.Artifacts, len(jobs))
		errs := make([]error, len(jobs))
		_ = conc.ForEach(ctx, b.clients, len(jobs), func(k int) {
			arts[k], errs[k] = argo.CompileSourceContext(ctx, jobs[k].uc.Source,
				coldOpts(jobs[k].uc.Entry, jobs[k].uc.Args, argo.Platform(jobs[k].platform)))
		})
		fps := make([]string, len(jobs))
		for k, j := range jobs {
			if errs[k] != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", j.uc.Name, j.platform, errs[k])
			}
			fps[k] = argo.SessionResultFingerprint(arts[k])
		}
		refs := allOps(results)
		_ = conc.ForEach(ctx, b.clients, len(refs), func(n int) {
			ref := refs[n]
			r := &results[ref.c][ref.i]
			if r.fail != "" {
				return
			}
			k, seeds := hotOp(b, ref.c, ref.i)
			checkFP(r, 0, fps[k])
			if !sampled(b, r, ref.c, ref.i) {
				return
			}
			for m, seed := range seeds {
				rep, err := argo.SimulateContext(ctx, arts[k], jobs[k].uc.Inputs(seed))
				if err != nil {
					r.failf("oracle simulate: %v", err)
					return
				}
				if rep.Makespan != r.makespans[m] {
					r.failf("seed %d: makespan %d, oracle %d", seed, r.makespans[m], rep.Makespan)
				}
			}
		})
		var lj []layerJob
		for k, j := range jobs {
			var ins [][][]float64
			for s := 0; s < 3; s++ {
				ins = append(ins, j.uc.Inputs(ledgerSeed(b, k, s)))
			}
			lj = append(lj, layerJob{source: j.uc.Source, policy: arts[k].Options.Policy, art: arts[k], inputs: ins})
		}
		return lj, nil
	},
}

// checkRuns validates the simulated runs of a reply: one per requested
// seed, in order, each within its static bound.
func checkRuns(r *opResult, runs []service.SimRun, seeds []int64) {
	if len(runs) != len(seeds) {
		r.failf("%d runs for %d seeds", len(runs), len(seeds))
		return
	}
	for n, run := range runs {
		if run.Seed != seeds[n] {
			r.failf("run %d has seed %d, sent %d", n, run.Seed, seeds[n])
		}
		if !run.WithinBound {
			r.failf("seed %d: makespan %d exceeds bound %d: %s", run.Seed, run.Makespan, run.TotalBound, run.BoundError)
		}
		r.makespans = append(r.makespans, run.Makespan)
		addTight(r, run.TotalBound, run.Makespan)
	}
}

// --- session-edit -----------------------------------------------------------

// sessionSpec is one session every client opens, and the function its
// replace-func edits rewrite.
type sessionSpec struct {
	uc, platform, fn string
}

var sessionSpecs = []sessionSpec{
	{"polka", "xentium4", "polka_smooth"},
	{"egpws", "leon3-4x4", "egpws_slope"},
	{"weaa", "hetero-2f2s", "weaa_hazard"},
}

// Edit parameter ranges. They are small on purpose: about half the
// edits return a session to a configuration it has been in before.
var (
	accessCycles = []float64{8, 12, 16, 20, 24, 28}
	policies     = []string{"aware", "oblivious"}
)

const toggledTransform = "unroll"

type sessionState struct {
	ids   [][]string // [client][spec]
	funcs []string   // formatted source of each spec's edited function
}

// sessionOp is op i of a client: an edit or (one op in eight) a
// simulate of one of the client's sessions.
type sessionOp struct {
	k        int // session index into sessionSpecs
	simulate bool
	seed     int64
	edit     service.SessionEditRequest
}

func sessionOpFor(b *bench, funcs []string, c, i int) sessionOp {
	rng := b.opRNG(c, i)
	op := sessionOp{k: rng.Intn(len(sessionSpecs))}
	if i%8 == 7 {
		op.simulate = true
		op.seed = simSeed(b, b.uid(c, i), 0)
		return op
	}
	switch rng.Intn(5) {
	case 0, 1:
		op.edit = service.SessionEditRequest{Op: argo.SessionOpSetParam, Param: "shared.access_cycles",
			Value: accessCycles[rng.Intn(len(accessCycles))]}
	case 2:
		op.edit = service.SessionEditRequest{Op: argo.SessionOpSetPolicy, Policy: policies[rng.Intn(len(policies))]}
	case 3:
		op.edit = service.SessionEditRequest{Op: argo.SessionOpToggleTransform, Transform: toggledTransform,
			Disable: rng.Intn(2) == 0}
	default:
		// Rewrite the function as itself plus one of three extra
		// statements (variant 0 restores the original body).
		text := funcs[op.k]
		if v := rng.Intn(4); v > 0 {
			text = strings.Replace(text, "endfunction", fmt.Sprintf("  wif = %d + 1\nendfunction", v), 1)
		}
		op.edit = service.SessionEditRequest{Op: argo.SessionOpReplaceFunc, Func: sessionSpecs[op.k].fn, Source: text}
	}
	return op
}

// toEdit mirrors the server's wire→edit conversion for the oracle.
func toEdit(e service.SessionEditRequest) (argo.SessionEdit, error) {
	out := argo.SessionEdit{Op: e.Op, Func: e.Func, Source: e.Source, Param: e.Param, Value: e.Value,
		Transform: e.Transform, Disable: e.Disable}
	if e.Op == argo.SessionOpSetPolicy {
		pol, err := service.ParsePolicy(e.Policy)
		if err != nil {
			return out, err
		}
		out.Policy = pol
	}
	return out, nil
}

func sessionFuncs() ([]string, error) {
	var out []string
	for _, s := range sessionSpecs {
		prog, err := scil.Parse(argo.UseCaseByName(s.uc).Source)
		if err != nil {
			return nil, err
		}
		var text string
		for _, f := range prog.Funcs {
			if f.Name == s.fn {
				text = scil.Format(&scil.Program{Funcs: []*scil.FuncDecl{f}})
			}
		}
		if text == "" {
			return nil, fmt.Errorf("%s has no function %s", s.uc, s.fn)
		}
		out = append(out, text)
	}
	return out, nil
}

var sessionEdit = &workload{
	name: "session-edit",
	why:  "what-if edits on open sessions, about half revisiting a configuration: session, pass snapshot restore, incremental syswcet and sched; front end idle but for replace-func",
	setup: func(b *bench, w *world) error {
		url, err := w.startServer(service.Config{})
		if err != nil {
			return err
		}
		funcs, err := sessionFuncs()
		if err != nil {
			return err
		}
		st := &sessionState{funcs: funcs}
		for c := 0; c < b.clients; c++ {
			cl := newClient(c, url)
			w.clients = append(w.clients, cl)
			var ids []string
			for _, s := range sessionSpecs {
				var r opResult
				var sum service.SessionSummary
				req := service.SessionCreateRequest{CompileRequest: service.CompileRequest{UseCase: s.uc, Platform: s.platform}}
				if _, _, ok := cl.post(&r, "/v1/session", req, &sum); !ok {
					return fmt.Errorf("open session: %s", r.fail)
				}
				ids = append(ids, sum.Session)
			}
			st.ids = append(st.ids, ids)
		}
		w.state = st
		return nil
	},
	do: func(b *bench, w *world, c *client, i int, r *opResult) {
		st := w.state.(*sessionState)
		op := sessionOpFor(b, st.funcs, c.id, i)
		id := st.ids[c.id][op.k]
		if op.simulate {
			var resp service.SimulateResponse
			seeds := []int64{op.seed}
			t0 := time.Now()
			body, _, ok := c.post(r, "/v1/session/"+id+"/simulate", service.SessionSimulateRequest{Seeds: seeds}, &resp)
			r.lat = time.Since(t0)
			if !ok {
				return
			}
			observe(r, body, &resp, []summary{{resp.Compile, false}})
			checkRuns(r, resp.Runs, seeds)
			return
		}
		var sum service.SessionSummary
		t0 := time.Now()
		body, _, ok := c.post(r, "/v1/session/"+id+"/edit", op.edit, &sum)
		r.lat = time.Since(t0)
		if !ok {
			return
		}
		if sum.Fingerprint != sum.Compile.Fingerprint {
			r.failf("session fingerprint %s differs from its compile summary's", sum.Fingerprint[:16])
		}
		observe(r, body, &sum, []summary{{sum.Compile, sum.PassesReran > 0}})
		if r.detail != nil {
			r.detail.edits++
			r.detail.changedTasks += len(sum.ChangedTasks)
		}
	},
	verify: func(ctx context.Context, b *bench, w *world, results [][]opResult) ([]layerJob, error) {
		st := w.state.(*sessionState)
		type pair struct{ c, k int }
		var pairs []pair
		for c := range results {
			for k := range sessionSpecs {
				pairs = append(pairs, pair{c, k})
			}
		}
		jobs := make([]layerJob, len(pairs))
		errs := make([]error, len(pairs))
		_ = conc.ForEach(ctx, b.clients, len(pairs), func(n int) {
			c, k := pairs[n].c, pairs[n].k
			spec := sessionSpecs[k]
			uc := argo.UseCaseByName(spec.uc)
			// Cold replay: a fresh in-process session applies the same
			// edit sequence; every reply must match it step by step.
			sess, _, err := argo.NewSession(ctx, uc.Source, argo.DefaultOptions(uc.Entry, uc.Args, argo.Platform(spec.platform)), argo.FaultSpec{})
			if err != nil {
				errs[n] = err
				return
			}
			for i := range results[c] {
				op := sessionOpFor(b, st.funcs, c, i)
				if op.k != k {
					continue
				}
				r := &results[c][i]
				if op.simulate {
					if r.fail != "" {
						continue
					}
					checkFP(r, 0, sess.Fingerprint())
					if !sampled(b, r, c, i) {
						continue
					}
					rep, _, err := sess.Simulate(ctx, uc.Inputs(op.seed), op.seed)
					if err != nil {
						r.failf("oracle simulate: %v", err)
						continue
					}
					if rep.Makespan != r.makespans[0] {
						r.failf("makespan %d, oracle %d", r.makespans[0], rep.Makespan)
					}
					continue
				}
				if r.fail != "" {
					continue // the server left its session unchanged
				}
				e, err := toEdit(op.edit)
				if err != nil {
					r.failf("oracle: %v", err)
					continue
				}
				res, err := sess.Apply(ctx, e, argo.SessionApplyOptions{})
				if err != nil {
					r.failf("oracle replay: %v", err)
					continue
				}
				checkFP(r, 0, res.Fingerprint)
			}
			// The replayed end state must equal a cold compile of its
			// canonical source.
			opt := sess.Options()
			opt.Passes.Cache = nil
			opt.Passes.NoCache = true
			art, err := argo.CompileSourceContext(ctx, sess.Source(), opt)
			if err != nil {
				errs[n] = fmt.Errorf("cold compile of replayed session: %w", err)
				return
			}
			if got := argo.SessionResultFingerprint(art); got != sess.Fingerprint() {
				errs[n] = fmt.Errorf("replayed session %s/%s: cold %s != incremental %s", spec.uc, spec.platform, got[:16], sess.Fingerprint()[:16])
				return
			}
			jobs[n] = layerJob{source: sess.Source(), policy: art.Options.Policy, art: art,
				inputs: [][][]float64{uc.Inputs(ledgerSeed(b, n, 0)), uc.Inputs(ledgerSeed(b, n, 1)), uc.Inputs(ledgerSeed(b, n, 2))}}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return jobs, nil
	},
}

// --- cluster-batch ----------------------------------------------------------

const (
	batchCells = 8
	// zipfS is the skew of cell popularity over the catalogue.
	zipfS = 1.1
	// The result caches of the coordinator's forward tier and of each
	// replica are LRUs smaller than the catalogue, so every tier misses
	// at a rate set by the Zipf stream and the cache sizes, not by how
	// long the run has lasted. The measured split of cells between the
	// tiers is in perfbench/README.md.
	coordinatorCacheEntries = 64
	replicaCacheEntries     = 64
	// warmBatches Zipf batches per client in set-up bring the LRU tiers
	// to their steady state before the window opens.
	warmBatches = 32
	// catalogueOrder seeds the fixed popularity order of the catalogue.
	catalogueOrder = 11
)

type cell struct {
	uc, platform, policy string
	maxTasks             int
}

func catalogue() []cell {
	var out []cell
	for _, uc := range argo.UseCases() {
		for _, p := range argo.PlatformNames() {
			for _, pol := range policies {
				for _, mt := range []int{0, 8, 16} {
					out = append(out, cell{uc.Name, p, pol, mt})
				}
			}
		}
	}
	return out
}

func (c cell) request() service.CompileRequest {
	return service.CompileRequest{UseCase: c.uc, Platform: c.platform, Policy: c.policy, MaxTasks: c.maxTasks}
}

type clusterState struct {
	cat  []cell
	perm []int // seeded popularity order over the catalogue
}

// zipfCells draws one batch of cells by popularity.
func zipfCells(rng *rand.Rand, st *clusterState) []cell {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(st.cat)-1))
	out := make([]cell, batchCells)
	for k := range out {
		out[k] = st.cat[st.perm[z.Uint64()]]
	}
	return out
}

func batchOp(b *bench, st *clusterState, c, i int) []cell {
	return zipfCells(b.opRNG(c, i), st)
}

// postBatch sends cells as one /v1/batch and checks that every cell
// compiled and came back in order.
func postBatch(c *client, r *opResult, cells []cell) ([]byte, *service.BatchResponse, bool) {
	req := service.BatchRequest{}
	for _, cl := range cells {
		req.Cells = append(req.Cells, service.BatchCell{CompileRequest: cl.request()})
	}
	var resp service.BatchResponse
	body, _, ok := c.post(r, "/v1/batch", req, &resp)
	if !ok {
		return nil, nil, false
	}
	if resp.Failed != 0 || len(resp.Cells) != len(cells) {
		r.failf("batch: %d of %d cells failed, %d returned", resp.Failed, len(cells), len(resp.Cells))
		return nil, nil, false
	}
	for k, cr := range resp.Cells {
		if cr.Status != 200 || cr.Compile == nil || cr.Index != k {
			r.failf("cell %d: status %d: %s", k, cr.Status, cr.Error)
			return nil, nil, false
		}
	}
	return body, &resp, true
}

// warmCluster compiles every catalogue cell once, least popular first,
// so that the process pass cache holds the whole catalogue and no cell's
// first compile falls in the window; then each client sends warmBatches
// Zipf batches from a set-up stream to settle the LRU tiers.
func warmCluster(b *bench, w *world, st *clusterState) error {
	errs := make([]error, b.clients)
	_ = conc.ForEach(context.Background(), b.clients, b.clients, func(c int) {
		cl := w.clients[c]
		var fill []cell
		for rank := len(st.perm) - 1 - c; rank >= 0; rank -= b.clients {
			fill = append(fill, st.cat[st.perm[rank]])
		}
		var batches [][]cell
		for len(fill) > 0 {
			n := min(batchCells, len(fill))
			batches = append(batches, fill[:n])
			fill = fill[n:]
		}
		rng := rand.New(rand.NewSource(b.seed*1_000_003 - int64(c) - 1))
		for k := 0; k < warmBatches; k++ {
			batches = append(batches, zipfCells(rng, st))
		}
		for _, cells := range batches {
			var r opResult
			if _, _, ok := postBatch(cl, &r, cells); !ok {
				errs[c] = fmt.Errorf("warm-up batch: %s", r.fail)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

var clusterBatch = &workload{
	name: "cluster-batch",
	why:  "8-cell batches, Zipf over a use case x platform x policy x max_tasks catalogue, through a coordinator and two 1-worker replicas: the ring, forwarding, forward cache and fan-out",
	setup: func(b *bench, w *world) error {
		var peers []string
		for k := 0; k < 2; k++ {
			url, err := w.startServer(service.Config{Workers: 1, CacheEntries: replicaCacheEntries})
			if err != nil {
				return err
			}
			peers = append(peers, url)
		}
		coord, err := w.startServer(service.Config{Peers: peers, CacheEntries: coordinatorCacheEntries})
		if err != nil {
			return err
		}
		// The clients call the coordinator: make it urls[0].
		n := len(w.urls) - 1
		w.urls[0], w.urls[n] = w.urls[n], w.urls[0]
		for c := 0; c < b.clients; c++ {
			w.clients = append(w.clients, newClient(c, coord))
		}
		// The popularity order is part of the workload, not of the seed:
		// the seed drives the request stream over a fixed catalogue.
		st := &clusterState{cat: catalogue(), perm: rand.New(rand.NewSource(catalogueOrder)).Perm(len(catalogue()))}
		w.state = st
		return warmCluster(b, w, st)
	},
	do: func(b *bench, w *world, c *client, i int, r *opResult) {
		cells := batchOp(b, w.state.(*clusterState), c.id, i)
		t0 := time.Now()
		body, resp, ok := postBatch(c, r, cells)
		r.lat = time.Since(t0)
		if !ok {
			return
		}
		var sums []summary
		for _, cr := range resp.Cells {
			sums = append(sums, summary{cr.Compile, cr.Outcome == "miss"})
		}
		observe(r, body, resp, sums)
	},
	verify: func(ctx context.Context, b *bench, w *world, results [][]opResult) ([]layerJob, error) {
		st := w.state.(*clusterState)
		seen := map[cell]int{}
		var cells []cell
		for c := range results {
			for i := range results[c] {
				for _, cl := range batchOp(b, st, c, i) {
					if _, ok := seen[cl]; !ok {
						seen[cl] = len(cells)
						cells = append(cells, cl)
					}
				}
			}
		}
		arts := make([]*argo.Artifacts, len(cells))
		errs := make([]error, len(cells))
		_ = conc.ForEach(ctx, b.clients, len(cells), func(k int) {
			cl := cells[k]
			uc := argo.UseCaseByName(cl.uc)
			opt := coldOpts(uc.Entry, uc.Args, argo.Platform(cl.platform))
			opt.MaxTasks = cl.maxTasks
			if opt.Policy, errs[k] = service.ParsePolicy(cl.policy); errs[k] != nil {
				return
			}
			arts[k], errs[k] = argo.CompileSourceContext(ctx, uc.Source, opt)
		})
		fps := make([]string, len(cells))
		for k, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("compile %+v: %w", cells[k], err)
			}
			fps[k] = argo.SessionResultFingerprint(arts[k])
		}
		// Batches do not simulate: the oracle simulates the prefix cells
		// itself, for the tightness of the bounds the batch returned.
		makespans := map[int]int64{}
		for c := range results {
			for i := range results[c] {
				r := &results[c][i]
				if r.fail != "" {
					continue
				}
				for n, cl := range batchOp(b, st, c, i) {
					k := seen[cl]
					checkFP(r, n, fps[k])
					if !r.prefix {
						continue
					}
					ms, ok := makespans[k]
					if !ok {
						rep, err := argo.SimulateContext(ctx, arts[k], argo.UseCaseByName(cl.uc).Inputs(b.seed))
						if err != nil {
							return nil, fmt.Errorf("simulate %+v: %w", cl, err)
						}
						ms = rep.Makespan
						makespans[k] = ms
					}
					addTight(r, arts[k].Bound(), ms)
				}
			}
		}
		var jobs []layerJob
		for k := 0; k < len(cells) && len(jobs) < 8; k++ {
			uc := argo.UseCaseByName(cells[k].uc)
			jobs = append(jobs, layerJob{source: uc.Source, policy: arts[k].Options.Policy, art: arts[k],
				inputs: [][][]float64{uc.Inputs(ledgerSeed(b, k, 0)), uc.Inputs(ledgerSeed(b, k, 1))}})
		}
		return jobs, nil
	},
}
