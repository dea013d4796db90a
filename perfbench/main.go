// Command argoperf is the ARGO benchmark. It starts argod in-process on
// loopback listeners, drives one seeded workload as a closed loop of
// clients, checks every reply against an in-process oracle, and prints
// every metric by name with its unit. The last line of its output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	argoperf --workload cold-compile --seed 1 --seconds 10 --trace 0
//	argoperf compare parent.txt change.txt
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ledger of the same seed. compare reads the
// RECORD lines of two sets of runs and labels every end-to-end metric of
// every workload better, worse, ~ or unresolved.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// clients is the closed loop's width: argod's callers (CLI jobs,
	// exploration scripts, the what-if editor) each wait for their reply,
	// and the reference machine has two cores.
	clients = 2
	// prefix is the number of ops per client over which the exact
	// figures (geomeans and counts) are computed.
	prefix = 64
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 9
	// heldOutSeed is never used while a change is written; a claimed
	// gain must also hold on it.
	heldOutSeed = 90210
)

// record is one run's result line (prefixed "RECORD " on stdout), the
// unit that compare reads.
type record struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Clients        int                `json:"clients"`
	Trace          bool               `json:"trace"`
	Provenance     provenance         `json:"provenance"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	FailedRatio    float64            `json:"failed_ratio"`
	LatencySamples int                `json:"latency_samples"`
	Metrics        map[string]float64 `json:"metrics"`
}

type provenance struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	HeldOutSeed int64  `json:"held_out_seed"`
}

func currentProvenance() provenance {
	p := provenance{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPU:         cpuModel(),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		HeldOutSeed: heldOutSeed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && p.Commit != "unknown" {
			p.Commit += "-dirty"
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("argoperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-compile, hot-simulate, session-edit, cluster-batch, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloads
	if *name != "all" {
		run = nil
		if wl := workloadByName(*name); wl != nil {
			run = []*workload{wl}
		}
	}
	if len(run) == 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "argoperf: bad arguments (workload %q)\n", *name)
		return 2
	}
	code := 0
	for _, wl := range run {
		code = max(code, runOne(wl, *seed, *seconds, *trace == 1, stdout, stderr))
	}
	return code
}

// runOne runs one workload and prints its report, its RECORD line and,
// last, the result object.
func runOne(wl *workload, seed int64, seconds float64, trace bool, stdout, stderr io.Writer) int {
	b := &bench{wl: wl, seed: seed, dur: time.Duration(seconds * float64(time.Second)),
		clients: clients, prefix: prefix, trace: trace, setupReps: setupReps}
	out, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintf(stderr, "argoperf: %s: %v\n", wl.name, err)
		return 1
	}
	rec := record{
		Workload: wl.name, Seed: seed, Seconds: seconds, Clients: clients, Trace: b.trace,
		Provenance: currentProvenance(), Attempted: out.attempted, Failed: out.failed,
		FailedRatio: ratio(float64(out.failed), float64(out.attempted)), LatencySamples: out.attempted,
		Metrics: out.metrics,
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "argoperf: FAILED %s\n", f)
	}
	printReport(stdout, rec, wl)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "argoperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "RECORD %s\n", line)
	set := endToEnd
	if b.trace {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]value{}}
	for _, m := range set {
		res.Metrics[m.Name] = value{out.metrics[m.Name], m.Unit}
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "argoperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// printReport writes the human-readable table of one run.
func printReport(w io.Writer, rec record, wl *workload) {
	p := rec.Provenance
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  clients %d  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Clients, rec.Trace)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintf(w, "machine: GOMAXPROCS %d  nproc %d  cpu %q  %s  commit %s  held-out seed %d\n",
		p.GOMAXPROCS, p.NProc, p.CPU, p.GoVersion, p.Commit, p.HeldOutSeed)
	fmt.Fprintf(w, "ops %d  failed %d  failed_ratio %.4f  latency samples %d\n",
		rec.Attempted, rec.Failed, rec.FailedRatio, rec.LatencySamples)
	if !rec.Trace {
		fmt.Fprintf(w, "%-26s %14s  %-6s %s\n", "metric", "value", "unit", "better")
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-26s %14.4f  %-6s %s\n", m.Name, rec.Metrics[m.Name], m.Unit, m.Better)
		}
		return
	}
	sum := map[string]bool{}
	for _, n := range ledgerSum {
		sum[n] = true
	}
	fmt.Fprintf(w, "%-33s %12s  %-5s %-3s %-17s %s\n", "layer metric", "value", "unit", "sum", "moves", "on")
	for _, m := range perLayer {
		mark := ""
		if sum[m.Name] || m.Name == "unattributed_ms_per_op" {
			mark = "+"
		}
		fmt.Fprintf(w, "%-33s %12.4f  %-5s %-3s %-17s %s\n", m.Name, rec.Metrics[m.Name], m.Unit, mark, m.Moves, m.On)
	}
	fmt.Fprintf(w, "rows marked + add up to the mean client latency of a traced op (sim.server_ms_per_run times runs per op)\n")
}

// readRecords loads the RECORD lines of one result set.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "RECORD ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}
