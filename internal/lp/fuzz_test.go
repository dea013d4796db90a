package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomMIP builds a small bounded mixed-integer problem from rng. Every
// variable gets an explicit upper bound so the relaxation is never
// unbounded and branch-and-bound terminates quickly.
func randomMIP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(5)
	p := &Problem{Obj: make([]float64, n), Integer: make([]bool, n)}
	for j := 0; j < n; j++ {
		p.Obj[j] = float64(rng.Intn(21) - 5)
		p.Integer[j] = rng.Intn(3) > 0
	}
	m := 1 + rng.Intn(5)
	for i := 0; i < m; i++ {
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			coef[j] = float64(rng.Intn(11) - 3)
		}
		rhs := float64(rng.Intn(30) - 5)
		switch rng.Intn(4) {
		case 0:
			p.AddGE(coef, rhs)
		case 1:
			p.AddEQ(coef, rhs)
		default:
			p.AddLE(coef, rhs)
		}
	}
	for j := 0; j < n; j++ {
		coef := make([]float64, n)
		coef[j] = 1
		p.AddLE(coef, float64(3+rng.Intn(12)))
	}
	return p
}

// bruteForceMIP solves p by enumerating every integer assignment inside
// the box 0 <= x[j] <= ub[j], pinning it with EQ rows and solving the
// continuous rest. It reports ok=false when the box has more than limit
// points.
func bruteForceMIP(p *Problem, ub []float64, limit int) (sol Solution, ok bool) {
	var ints []int
	points := 1
	for j, isInt := range p.Integer {
		if isInt {
			ints = append(ints, j)
			if points *= int(ub[j]) + 1; points > limit {
				return Solution{}, false
			}
		}
	}
	n := p.NumVars()
	best := Solution{Status: Infeasible}
	val := make([]int, len(ints))
	for {
		sub := &Problem{Obj: p.Obj, Cons: append([]Constraint{}, p.Cons...)}
		for k, j := range ints {
			coef := make([]float64, n)
			coef[j] = 1
			sub.AddEQ(coef, float64(val[k]))
		}
		if s := Solve(sub); s.Status == Optimal && (best.Status != Optimal || s.Obj > best.Obj) {
			best = s
		}
		// Advance the mixed-radix counter over the box.
		k := 0
		for ; k < len(ints); k++ {
			if val[k]++; val[k] <= int(ub[ints[k]]) {
				break
			}
			val[k] = 0
		}
		if k == len(ints) {
			return best, true
		}
	}
}

// FuzzSolveMIP checks branch-and-bound against brute-force enumeration
// of the integer box whenever that box has at most 4096 points: same
// status, and objective values within solver tolerance. Every Optimal
// result must also satisfy the integrality restrictions.
func FuzzSolveMIP(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomMIP(rng)
		got := SolveMIP(p)
		if got.Status == Optimal {
			if idx := firstFractional(got.X, p.Integer); idx >= 0 {
				t.Fatalf("seed %d: solution fractional at %d: %v", seed, idx, got.X[idx])
			}
		}
		// randomMIP ends with one upper-bound row per variable.
		ub := make([]float64, p.NumVars())
		for j := range ub {
			ub[j] = p.Cons[len(p.Cons)-len(ub)+j].RHS
		}
		want, ok := bruteForceMIP(p, ub, 4096)
		if !ok {
			return
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v, brute force %v", seed, got.Status, want.Status)
		}
		if got.Status != Optimal {
			return
		}
		tol := 1e-6 * (1 + math.Abs(want.Obj))
		if math.Abs(got.Obj-want.Obj) > tol {
			t.Fatalf("seed %d: obj %v, brute force %v (tol %v)", seed, got.Obj, want.Obj, tol)
		}
	})
}
