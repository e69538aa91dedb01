package lp

import (
	"context"
	"math/rand"
	"testing"
)

// benchProblem builds a dense random bounded LP with n variables and m
// constraints.
func benchProblem(n, m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Maximize)
	xs := make([]Var, n)
	for j := 0; j < n; j++ {
		xs[j] = p.AddVar(rng.Float64() * 2)
	}
	for i := 0; i < m; i++ {
		row := make(map[Var]float64, n)
		for j := 0; j < n; j++ {
			row[xs[j]] = rng.Float64()
		}
		if err := p.AddConstraint(row, LE, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	return p
}

func benchSolve(b *testing.B, n, m int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchProblem(n, m, int64(i))
		b.StartTimer()
		sol, err := p.SolveContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkSolveSmall(b *testing.B)  { benchSolve(b, 10, 8) }
func BenchmarkSolveMedium(b *testing.B) { benchSolve(b, 50, 30) }
func BenchmarkSolveLarge(b *testing.B)  { benchSolve(b, 200, 60) }

// BenchmarkSolveEq6Shape solves a fully dense LP with many more columns
// than rows (400 × 25) and LE rows only, so phase 1 never runs. It
// shares only the aspect ratio with the availability LP; core's
// BenchmarkSolveEq6Fig2 solves the served shape (sparse set columns, GE
// demand rows, phase 1).
func BenchmarkSolveEq6Shape(b *testing.B) { benchSolve(b, 400, 25) }
