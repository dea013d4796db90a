// Differential tests for the fault-injection layer (see docs/TESTING.md):
// a disabled fault spec must leave the simulator bit-identical to the
// recorded pre-injection goldens over every builtin platform × use case,
// an enabled spec must reproduce the recorded injected goldens, and an
// enabled spec must be a pure function of its seed — byte-equal reports
// from concurrently racing runs.
//
// The external test package breaks the import cycle: the oracle compiles
// through internal/core, which itself imports internal/sim.
package sim_test

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/sim"
	"argo/internal/usecases"
)

// fingerprint flattens a simulation report into one canonical line:
// every timing observable verbatim, plus an FNV-64a hash over the raw
// bit patterns of the numeric results (bit-identical, not epsilon-equal).
// The format must stay in sync with testdata/fault_golden.txt and
// testdata/fault_inject_golden.txt.
func fingerprint(rep *sim.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d exec=%d buswait=%d pro=%d epi=%d",
		rep.Makespan, rep.ExecSpan, rep.BusWaitCycles, rep.PrologueCycles, rep.EpilogueCycles)
	b.WriteString(" starts=")
	for i, v := range rep.TaskStart {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(" finishes=")
	for i, v := range rep.TaskFinish {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	h := fnv.New64a()
	for _, row := range rep.Results {
		for _, v := range row {
			var buf [8]byte
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(&b, " results=%016x", h.Sum64())
	return b.String()
}

// loadGolden parses a golden file whose lines are keyFields
// space-separated key fields followed by a fingerprint into
// key -> fingerprint.
func loadGolden(t *testing.T, path string, keyFields int) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		parts := strings.SplitN(line, " ", keyFields+1)
		if len(parts) != keyFields+1 {
			t.Fatalf("malformed golden line: %q", line)
		}
		golden[strings.Join(parts[:keyFields], " ")] = parts[keyFields]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("empty golden file")
	}
	return golden
}

// TestZeroFaultBitIdenticalToGolden: both the plain simulator and a
// RunFaulty call with the zero (disabled) spec must reproduce the
// golden fingerprints recorded before the injection layer existed, for
// every builtin platform × use case × input seed. Any drift — a stray
// injector allocation, a reordered event, a perturbed draw — shows up
// as a one-line diff here.
func TestZeroFaultBitIdenticalToGolden(t *testing.T) {
	golden := loadGolden(t, "testdata/fault_golden.txt", 3)
	covered := 0
	for _, pname := range adl.BuiltinNames() {
		platform := adl.Builtin(pname)
		for _, u := range usecases.All() {
			u := u
			t.Run(pname+"/"+u.Name, func(t *testing.T) {
				t.Parallel()
				p, err := u.Program()
				if err != nil {
					t.Fatal(err)
				}
				art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform))
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 2; seed++ {
					key := fmt.Sprintf("%s %s seed=%d", pname, u.Name, seed)
					want, ok := golden[key]
					if !ok {
						t.Fatalf("no golden fingerprint for %q", key)
					}
					plain, err := sim.Run(art.Parallel, u.Inputs(seed))
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(plain); got != want {
						t.Errorf("uninjected simulator drifted from golden\n key %s\n got  %s\n want %s", key, got, want)
					}
					zero, err := sim.RunFaulty(context.Background(), art.Parallel, u.Inputs(seed), fault.Spec{})
					if err != nil {
						t.Fatal(err)
					}
					if zero.Faults.Total() != 0 {
						t.Errorf("%s: disabled spec injected %d events", key, zero.Faults.Total())
					}
					if got := fingerprint(zero); got != want {
						t.Errorf("zero-fault run differs from uninjected golden\n key %s\n got  %s\n want %s", key, got, want)
					}
				}
			})
			covered += 2
		}
	}
	if covered != len(golden) {
		t.Errorf("matrix covers %d runs, golden file has %d", covered, len(golden))
	}
}

// injectedGoldenSpecs are the fault scenarios of
// testdata/fault_inject_golden.txt, by the name in its key: access jitter
// alone, and full jitter with in-headroom execution inflation. Each run
// uses its input seed as the fault seed.
var injectedGoldenSpecs = []struct {
	name string
	spec fault.Spec
}{
	{"jitter", fault.Spec{AccessJitter: 0.7}},
	{"jitter+inflation", fault.Spec{AccessJitter: 1, ExecInflation: 0.5}},
}

// TestFaultInjectedBitIdenticalToGolden: RunFaulty with access jitter
// (and execution inflation) must reproduce the fingerprints recorded from
// the simulator before its event loop was rewritten, for every builtin
// platform × use case × input seed. Jitter moves a core's completion
// times and so which request reaches the bus first; a reordered grant or
// signal post under injection shows up as a one-line diff here.
func TestFaultInjectedBitIdenticalToGolden(t *testing.T) {
	golden := loadGolden(t, "testdata/fault_inject_golden.txt", 4)
	covered := 0
	for _, pname := range adl.BuiltinNames() {
		platform := adl.Builtin(pname)
		for _, u := range usecases.All() {
			u := u
			t.Run(pname+"/"+u.Name, func(t *testing.T) {
				t.Parallel()
				p, err := u.Program()
				if err != nil {
					t.Fatal(err)
				}
				art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform))
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 2; seed++ {
					for _, sc := range injectedGoldenSpecs {
						key := fmt.Sprintf("%s %s seed=%d %s", pname, u.Name, seed, sc.name)
						want, ok := golden[key]
						if !ok {
							t.Fatalf("no golden fingerprint for %q", key)
						}
						spec := sc.spec
						spec.Seed = seed
						rep, err := sim.RunFaulty(context.Background(), art.Parallel, u.Inputs(seed), spec)
						if err != nil {
							t.Fatal(err)
						}
						if got := fingerprint(rep); got != want {
							t.Errorf("injected run drifted from golden\n key %s\n got  %s\n want %s", key, got, want)
						}
					}
				}
			})
			covered += 2 * len(injectedGoldenSpecs)
		}
	}
	if covered != len(golden) {
		t.Errorf("matrix covers %d runs, golden file has %d", covered, len(golden))
	}
}

// TestFaultInjectionDeterministicPerSeed: an enabled spec is a pure
// function of (program, inputs, seed) — eight goroutines racing the
// same faulty simulation must produce byte-identical fingerprints and
// identical injection stats (run under -race in CI), and changing only
// the fault seed must actually change the injected pattern.
func TestFaultInjectionDeterministicPerSeed(t *testing.T) {
	u := usecases.ByName("weaa")
	if u == nil {
		t.Fatal("weaa use case missing")
	}
	p, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, adl.Builtin("xentium4")))
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Seed: 7, AccessJitter: 0.8, ExecInflation: 0.8, NoCStall: 0.5}

	const racers = 8
	prints := make([]string, racers)
	stats := make([]fault.Stats, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := sim.RunFaulty(context.Background(), art.Parallel, u.Inputs(1), spec)
			if err != nil {
				errs[i] = err
				return
			}
			prints[i] = fingerprint(rep)
			stats[i] = rep.Faults
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if prints[i] != prints[0] {
			t.Fatalf("racer %d diverged:\n%s\nvs\n%s", i, prints[i], prints[0])
		}
		if stats[i] != stats[0] {
			t.Fatalf("racer %d injected differently: %+v vs %+v", i, stats[i], stats[0])
		}
	}
	if stats[0].Total() == 0 {
		t.Fatal("enabled spec injected nothing — the determinism check is vacuous")
	}

	// A serial re-run reproduces the racers exactly.
	again, err := sim.RunFaulty(context.Background(), art.Parallel, u.Inputs(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if fp := fingerprint(again); fp != prints[0] {
		t.Fatalf("serial re-run differs from concurrent runs:\n%s\nvs\n%s", fp, prints[0])
	}

	// Same program, same inputs, different fault seed: the injected
	// pattern must move (otherwise the seed is dead).
	other := spec
	other.Seed = 8
	rep2, err := sim.RunFaulty(context.Background(), art.Parallel, u.Inputs(1), other)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(rep2) == prints[0] && rep2.Faults == stats[0] {
		t.Fatal("changing the fault seed changed nothing")
	}
}
