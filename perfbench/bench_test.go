package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// TestExactRepeat runs a short prefix of every workload twice and
// requires the figures that depend only on the jobs to repeat bit for
// bit (all of exactMetrics that exactOn the workload), with every reply
// passing the oracle.
func TestExactRepeat(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var first map[string]float64
			for rep := 0; rep < 2; rep++ {
				b := &bench{wl: wl, seed: 7, dur: 0, clients: 2, prefix: 8, trace: true, setupReps: 1}
				out, err := b.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed: %v", rep, out.failed, out.attempted, out.failures)
				}
				got := map[string]float64{}
				for _, name := range exactMetrics {
					if !exactOn(wl.name, name) {
						continue
					}
					v, ok := out.metrics[name]
					if !ok {
						t.Fatalf("run %d: no metric %s", rep, name)
					}
					got[name] = v
				}
				for _, name := range []string{"wcet_speedup_geomean", "bound_tightness_geomean", "htg.tasks_per_op", "service.response_kb_per_op"} {
					if got[name] <= 0 {
						t.Errorf("run %d: %s = %v, want > 0", rep, name, got[name])
					}
				}
				if first == nil {
					first = got
					continue
				}
				for name, v := range got {
					if v != first[name] {
						t.Errorf("%s: %v then %v", name, first[name], v)
					}
				}
			}
		})
	}
}

// synthetic builds, for n seeds of one workload, an untraced record
// whose timing metrics scatter by ±2% around base values, and a traced
// record of the exact count metrics. Exact metrics depend on the seed
// alone, as they do in real runs; scale multiplies named metrics.
func synthetic(rng *rand.Rand, n int, scale map[string]float64) []record {
	var out []record
	for k := 0; k < n; k++ {
		r := record{Workload: "cold-compile", Seed: int64(k), Metrics: map[string]float64{}}
		t := record{Workload: "cold-compile", Seed: int64(k), Trace: true, Metrics: map[string]float64{}}
		for i, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
			v := float64(10+i) * (1 + 0.04*(rng.Float64()-0.5))
			if isExact(m.Name) {
				v = float64(10+i) * (1 + 0.01*float64(k%3))
			}
			if s, ok := scale[m.Name]; ok {
				v *= s
			}
			if i < len(endToEnd) {
				r.Metrics[m.Name] = v
			} else if isExact(m.Name) {
				t.Metrics[m.Name] = v
			}
		}
		out = append(out, r, t)
	}
	return out
}

// shifted returns the scale that worsens metric m by share (or improves
// it, for a negative share).
func shifted(m metric, share float64) map[string]float64 {
	if m.Better == "higher" {
		return map[string]float64{m.Name: 1 - share}
	}
	return map[string]float64{m.Name: 1 + share}
}

// expectLabels requires metric name to be labelled want and every other
// row ~.
func expectLabels(t *testing.T, what string, rows []compareRow, name, want string) {
	t.Helper()
	found := false
	for _, row := range rows {
		w := labelSame
		if row.metric == name {
			w, found = want, true
		}
		if row.label != w {
			t.Errorf("%s: %s labelled %q, want %q", what, row.metric, row.label, w)
		}
	}
	if name != "" && !found {
		t.Errorf("%s: no row for %s", what, name)
	}
}

func TestCompareLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parent := synthetic(rng, 10, nil)
	expectLabels(t, "same commit", compareSets(parent, synthetic(rng, 10, nil)), "", "")

	// A 20% worsening is labelled worse wherever the bound is tighter
	// than 20%, and a worsening just beyond the bound everywhere.
	for _, m := range endToEnd {
		shifts := []float64{m.Bound + 0.05}
		if m.Bound < 0.2 {
			shifts = append(shifts, 0.2)
		}
		for _, shift := range shifts {
			rows := compareSets(parent, synthetic(rng, 10, shifted(m, shift)))
			expectLabels(t, fmt.Sprintf("%s %.0f%% worse", m.Name, 100*shift), rows, m.Name, labelWorse)
		}
	}

	// Exact metrics repeat for a seed, so a 1% shift, far inside any
	// bound, is still a difference: worse in the worse direction,
	// changed in the other.
	for _, name := range exactMetrics {
		m := metricByName(name)
		rows := compareSets(parent, synthetic(rng, 10, shifted(m, 0.01)))
		expectLabels(t, name+" 1% worse", rows, name, labelWorse)
		rows = compareSets(parent, synthetic(rng, 10, shifted(m, -0.01)))
		expectLabels(t, name+" 1% better", rows, name, labelChanged)
	}

	faster := synthetic(rng, 10, map[string]float64{"throughput_ops_s": 1.3})
	for _, row := range compareSets(parent, faster) {
		if row.metric == "throughput_ops_s" && row.label != labelBetter {
			t.Errorf("30%% more throughput labelled %q, want better", row.label)
		}
	}
	// A spread wider than the bound cannot be called unchanged.
	noisy := synthetic(rng, 10, nil)
	for k := range noisy {
		if !noisy[k].Trace {
			noisy[k].Metrics["retained_heap_mb"] *= 1 + 0.5*float64(k/2%2)
		}
	}
	expectLabels(t, "noisy retained heap", compareSets(parent, noisy), "retained_heap_mb", labelUnresolved)
}

func metricByName(name string) metric {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			return m
		}
	}
	panic("no metric " + name)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables of this program identical, so the bounds it publishes are the ones
// compare applies.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for k, w := range spec.Workloads {
		if w.Name != workloads[k].name || w.Why != workloads[k].why {
			t.Errorf("workload %d: %q/%q differs from %q/%q", k, w.Name, w.Why, workloads[k].name, workloads[k].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for k, m := range spec.EndToEnd {
		e := endToEnd[k]
		if m.Name != e.Name || m.Unit != e.Unit || m.Better != e.Better || m.Bound != e.Bound {
			t.Errorf("end-to-end %d: %+v differs from %+v", k, m, e)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for k, m := range spec.PerLayer {
		e := perLayer[k]
		if m.Name != e.Name || m.Unit != e.Unit || m.Better != e.Better {
			t.Errorf("per-layer %d: %+v differs from %+v", k, m, e)
		}
	}
}
