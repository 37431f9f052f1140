package eigen

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkSolverReuse measures the steady-state cost of repeated solves on
// a long-lived Solver: the arena pool retains every workspace and the
// eigenvectors land in a caller-supplied matrix, so allocs/op should be
// near zero (compare with BenchmarkEigOneShot).
func BenchmarkSolverReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 256
	a := randSymMatrix(rng, n)
	s := NewSolver(&Options{NB: 32})
	defer s.Close()
	dst := NewMatrix(n)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // reach workspace steady state
		if _, err := s.EigTo(ctx, a, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EigTo(ctx, a, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigOneShot is the baseline: every call builds and tears down a
// transient Solver, so all workspace is allocated from scratch.
func BenchmarkEigOneShot(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 256
	a := randSymMatrix(rng, n)
	opts := &Options{NB: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eig(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolverReuseAllocRatio gates the workspace-reuse discipline: a warmed
// Solver must allocate at least 10× less per solve than one-shot Eig.
func TestSolverReuseAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation skews allocation counts")
	}
	rng := rand.New(rand.NewSource(7))
	n := 256
	a := randSymMatrix(rng, n)
	opts := &Options{NB: 32}

	oneShot := testing.AllocsPerRun(2, func() {
		if _, err := Eig(a, opts); err != nil {
			t.Fatal(err)
		}
	})

	s := NewSolver(opts)
	defer s.Close()
	dst := NewMatrix(n)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // warm the arena
		if _, err := s.EigTo(ctx, a, dst); err != nil {
			t.Fatal(err)
		}
	}
	reuse := testing.AllocsPerRun(3, func() {
		if _, err := s.EigTo(ctx, a, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-shot %.0f allocs/solve, reuse %.0f allocs/solve", oneShot, reuse)
	if reuse*10 > oneShot {
		t.Fatalf("steady-state solve allocates too much: one-shot %.0f, reuse %.0f (want ≥ 10× reduction)", oneShot, reuse)
	}
	// Absolute gate: with the fused back-transformation and worker slabs, a
	// steady-state vector solve must not allocate per task or per block.
	if reuse > 10 {
		t.Fatalf("steady-state solve allocates %.0f times/solve, want ≤ 10", reuse)
	}
}
