package main

import (
	"fmt"
	"io"
	"math"
)

// Comparison labels (choosing-metrics §5 and §8).
const (
	labelBetter     = "better"
	labelWorse      = "worse"
	labelSame       = "~"
	labelUnresolved = "unresolved"
)

// worsening is the share by which to is worse than from (negative when
// better), in the metric's direction.
func worsening(m metric, from, to float64) float64 {
	d := ratio(to-from, from)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// label compares the runs of a parent (a) and a change (b) of one
// metric against its bound:
//   - unresolved when either side's quartile spread, as a share of its
//     median, exceeds the bound, unless every run of the change beats
//     every run of the parent (then better);
//   - worse when the change's median is worse than the parent's by more
//     than the bound;
//   - better when the change wins at least nine in ten pairs and the
//     medians differ by more than the parent's quartile spread;
//   - ~ otherwise.
func label(m metric, a, b []float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if math.Max(ratio(a3-a1, am), ratio(b3-b1, bm)) > m.Bound {
		if dominates(m, a, b) {
			return labelBetter
		}
		return labelUnresolved
	}
	d := worsening(m, am, bm)
	if d > m.Bound {
		return labelWorse
	}
	if d < 0 && pairWins(m, a, b) >= 0.9 && math.Abs(bm-am) > a3-a1 {
		return labelBetter
	}
	return labelSame
}

// dominates reports whether every run of b is better than every run of a.
func dominates(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(m, x, y) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// pairWins is the share of pairs (runs matched in seed order) that b
// wins; ties count for neither side.
func pairWins(m metric, a, b []float64) float64 {
	n := min(len(a), len(b))
	wins := 0
	for k := 0; k < n; k++ {
		if worsening(m, a[k], b[k]) < 0 {
			wins++
		}
	}
	return ratio(float64(wins), float64(n))
}

// Exact metrics (exactMetrics) repeat bit for bit for a seed, so they
// are compared seed by seed and any difference counts, however small.
const labelChanged = "changed"

func isExact(name string) bool {
	for _, n := range exactMetrics {
		if n == name {
			return true
		}
	}
	return false
}

// exactLabel compares an exact metric over the seeds both sides ran:
//   - worse when the change reads worse on some seed;
//   - changed when it differs on some seed and reads worse on none;
//   - ~ when every common seed reads the same;
//   - unresolved when the sides share no seed.
func exactLabel(m metric, a, b []record) string {
	parent := map[int64]float64{}
	for _, r := range a {
		parent[r.Seed] = r.Metrics[m.Name]
	}
	common, changed := 0, false
	for _, r := range b {
		x, ok := parent[r.Seed]
		if !ok {
			continue
		}
		common++
		y := r.Metrics[m.Name]
		if y == x {
			continue
		}
		if worsening(m, x, y) > 0 {
			return labelWorse
		}
		changed = true
	}
	switch {
	case common == 0:
		return labelUnresolved
	case changed:
		return labelChanged
	}
	return labelSame
}

// compareRow is one workload × metric line of a comparison.
type compareRow struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	delta            float64    // worsening share of the medians
	label            string
}

// compareSets compares two result sets: every end-to-end metric of the
// untraced runs, and the exact count metrics of the traced runs.
func compareSets(parent, change []record) []compareRow {
	var exactLayer []metric
	for _, m := range perLayer {
		if isExact(m.Name) {
			exactLayer = append(exactLayer, m)
		}
	}
	var rows []compareRow
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			a, b := runsOf(parent, wl.name, trace), runsOf(change, wl.name, trace)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			set := endToEnd
			if trace {
				set = exactLayer
			}
			for _, m := range set {
				if trace && !exactOn(wl.name, m.Name) {
					continue // no bound to apply either
				}
				va, vb := column(a, m.Name), column(b, m.Name)
				row := compareRow{workload: wl.name, metric: m.Name}
				if isExact(m.Name) {
					row.label = exactLabel(m, a, b)
				} else {
					row.label = label(m, va, vb)
				}
				row.a[0], row.a[1], row.a[2] = quartiles(va)
				row.b[0], row.b[1], row.b[2] = quartiles(vb)
				row.delta = worsening(m, row.a[1], row.b[1])
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func runsOf(recs []record, workload string, trace bool) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func column(recs []record, name string) []float64 {
	out := make([]float64, len(recs))
	for k, r := range recs {
		out[k] = r.Metrics[name]
	}
	return out
}

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: argoperf compare <parent results> <change results>")
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(w, "argoperf compare: %v\n", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(w, "argoperf compare: %v\n", err)
		return 1
	}
	rows := compareSets(parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(w, "argoperf compare: no workload has runs on both sides")
		return 1
	}
	fmt.Fprintf(w, "%-14s %-28s %-32s %-32s %8s  %s\n", "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "worse", "label")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-28s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%%  %s\n",
			r.workload, r.metric, r.a[0], r.a[1], r.a[2], r.b[0], r.b[1], r.b[2], 100*r.delta, r.label)
	}
	return 0
}
