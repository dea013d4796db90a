package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

func TestSolveSimpleLE(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
	p := &Problem{Obj: []float64{3, 2}}
	p.AddLE([]float64{1, 1}, 4)
	p.AddLE([]float64{1, 3}, 6)
	s := Solve(p)
	if s.Status != Optimal || !near(s.Obj, 12) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveClassic(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> (3, 1.5), obj 21.
	p := &Problem{Obj: []float64{5, 4}}
	p.AddLE([]float64{6, 4}, 24)
	p.AddLE([]float64{1, 2}, 6)
	s := Solve(p)
	if s.Status != Optimal || !near(s.Obj, 21) || !near(s.X[0], 3) || !near(s.X[1], 1.5) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveWithEquality(t *testing.T) {
	// max x + y s.t. x + y == 5, x <= 3 -> obj 5.
	p := &Problem{Obj: []float64{1, 1}}
	p.AddEQ([]float64{1, 1}, 5)
	p.AddLE([]float64{1, 0}, 3)
	s := Solve(p)
	if s.Status != Optimal || !near(s.Obj, 5) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveWithGE(t *testing.T) {
	// max -x (i.e. minimize x) s.t. x >= 2.5 -> x = 2.5.
	p := &Problem{Obj: []float64{-1}}
	p.AddGE([]float64{1}, 2.5)
	s := Solve(p)
	if s.Status != Optimal || !near(s.X[0], 2.5) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{Obj: []float64{1}}
	p.AddLE([]float64{1}, 1)
	p.AddGE([]float64{1}, 2)
	s := Solve(p)
	if s.Status != Infeasible {
		t.Fatalf("sol: %+v", s)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{Obj: []float64{1, 0}}
	p.AddGE([]float64{1, 0}, 1)
	s := Solve(p)
	if s.Status != Unbounded {
		t.Fatalf("sol: %+v", s)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -1 with x,y>=0, max x s.t. also y <= 3 -> x = 2.
	p := &Problem{Obj: []float64{1, 0}}
	p.AddLE([]float64{1, -1}, -1)
	p.AddLE([]float64{0, 1}, 3)
	s := Solve(p)
	if s.Status != Optimal || !near(s.X[0], 2) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classically degenerate problem; Bland's rule must terminate.
	p := &Problem{Obj: []float64{0.75, -150, 0.02, -6}}
	p.AddLE([]float64{0.25, -60, -0.04, 9}, 0)
	p.AddLE([]float64{0.5, -90, -0.02, 3}, 0)
	p.AddLE([]float64{0, 0, 1, 0}, 1)
	s := Solve(p)
	if s.Status != Optimal || !near(s.Obj, 0.05) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveMIPKnapsack(t *testing.T) {
	// 0/1 knapsack: values 10, 13, 7; weights 4, 6, 3; cap 9.
	// Best integer: items 1+3 = 17 (weight 7) or 2+3 = 20 (weight 9). -> 20.
	p := &Problem{
		Obj:     []float64{10, 13, 7},
		Integer: []bool{true, true, true},
	}
	p.AddLE([]float64{4, 6, 3}, 9)
	p.AddLE([]float64{1, 0, 0}, 1)
	p.AddLE([]float64{0, 1, 0}, 1)
	p.AddLE([]float64{0, 0, 1}, 1)
	s := SolveMIP(p)
	if s.Status != Optimal || !near(s.Obj, 20) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveMIPMatchesRelaxationWhenIntegral(t *testing.T) {
	p := &Problem{Obj: []float64{1, 1}, Integer: []bool{true, true}}
	p.AddLE([]float64{1, 0}, 3)
	p.AddLE([]float64{0, 1}, 4)
	s := SolveMIP(p)
	if s.Status != Optimal || !near(s.Obj, 7) {
		t.Fatalf("sol: %+v", s)
	}
}

func TestSolveMIPForcesIntegrality(t *testing.T) {
	// max x s.t. 2x <= 5 -> LP 2.5, MIP 2.
	p := &Problem{Obj: []float64{1}, Integer: []bool{true}}
	p.AddLE([]float64{2}, 5)
	s := SolveMIP(p)
	if s.Status != Optimal || !near(s.Obj, 2) {
		t.Fatalf("sol: %+v", s)
	}
}

// TestSolveMIPNodeLimit cuts branch-and-bound short. The search first
// visits the y >= 2 branch: after one node it has no incumbent, after
// two or three it holds 18 at (2, 2), below the optimum 20 at (4, 0).
// Neither Infeasible nor that incumbent may be reported as the answer.
func TestSolveMIPNodeLimit(t *testing.T) {
	p := &Problem{Obj: []float64{5, 4}, Integer: []bool{true, true}}
	p.AddLE([]float64{6, 4}, 24)
	p.AddLE([]float64{1, 2}, 6)
	defer func(n int) { maxBBNodes = n }(maxBBNodes)
	for _, limit := range []int{1, 2, 3} {
		maxBBNodes = limit
		if s := SolveMIP(p); s.Status != NodeLimit {
			t.Fatalf("cap %d: sol %+v, want status %v", limit, s, NodeLimit)
		}
	}
	maxBBNodes = 1000
	if s := SolveMIP(p); s.Status != Optimal || !near(s.Obj, 20) {
		t.Fatalf("uncapped: sol %+v", s)
	}
}

// Property: for random LE-only problems with non-negative data, the
// simplex solution is feasible and at least as good as any of a set of
// random feasible points.
func TestSolveFeasibilityAndDominanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := &Problem{Obj: make([]float64, n)}
		for j := range p.Obj {
			p.Obj[j] = rng.Float64() * 10
		}
		for i := 0; i < m; i++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = rng.Float64() * 5
			}
			coef[rng.Intn(n)] += 1 // keep problem bounded-ish
			p.AddLE(coef, 1+rng.Float64()*20)
		}
		// Also bound every variable to guarantee boundedness.
		for j := 0; j < n; j++ {
			coef := make([]float64, n)
			coef[j] = 1
			p.AddLE(coef, 50)
		}
		s := Solve(p)
		if s.Status != Optimal {
			return false
		}
		// Feasibility.
		for _, con := range p.Cons {
			dot := 0.0
			for j, c := range con.Coef {
				dot += c * s.X[j]
			}
			if dot > con.RHS+1e-6 {
				return false
			}
		}
		for _, xi := range s.X {
			if xi < -1e-9 {
				return false
			}
		}
		// Dominance over random feasible points (scaled to feasibility).
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 5
			}
			scale := 1.0
			for _, con := range p.Cons {
				dot := 0.0
				for j, c := range con.Coef {
					dot += c * x[j]
				}
				if dot > con.RHS && dot > 0 {
					s2 := con.RHS / dot
					if s2 < scale {
						scale = s2
					}
				}
			}
			obj := 0.0
			for j := range x {
				obj += p.Obj[j] * x[j] * scale
			}
			if obj > s.Obj+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("relation strings")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" ||
		NodeLimit.String() != "node limit" {
		t.Fatal("status strings")
	}
}
