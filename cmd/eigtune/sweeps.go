package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/backtransform"
	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
	"repro/internal/work"
)

// The four measurements whose winners the profile persists. Each times one
// candidate and returns the number the caller ranks by; run prints and
// compares them. Operands are seeded from n alone, so every candidate of a
// sweep sees the same matrix.

func matFor(n int) *matrix.Dense {
	return testmat.RandomSym(rand.New(rand.NewSource(int64(n)*7919+13)), n)
}

// gemmOperands builds the n×n operands of the GEMM sweep and their product
// under the portable 2×4 kernel, the bitwise reference of every candidate.
func gemmOperands(n int) (a, b, ref []float64) {
	rng := rand.New(rand.NewSource(int64(n)*104729 + 5))
	a = make([]float64, n*n)
	b = make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	old := blas.SetBlocking(blas.Blocking{Kernel: blas.Kernel2x4})
	defer blas.SetBlocking(old)
	ref = make([]float64, n*n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, ref, n)
	return a, b, ref
}

// gemmRate times C = A·B at order n under bk and reports the best-of-reps
// rate and whether C equals ref bit for bit — KC is pinned across all
// candidates, so a difference is a kernel bug, not rounding. Each rep runs
// for at least 80 ms, which keeps one rep meaningful on a shared host.
func gemmRate(n int, bk blas.Blocking, reps int, a, b, ref []float64) (gflops float64, bitwise bool) {
	old := blas.SetBlocking(bk)
	defer blas.SetBlocking(old)
	c := make([]float64, n*n)
	mul := func() { blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n) }
	mul() // warm-up; also the output that is compared
	bitwise = true
	for i := range c {
		if c[i] != ref[i] {
			bitwise = false
			break
		}
	}
	flop := 2 * float64(n) * float64(n) * float64(n)
	for r := 0; r < reps; r++ {
		iters := 0
		start := time.Now()
		for time.Since(start) < 80*time.Millisecond {
			mul()
			iters++
		}
		gflops = max(gflops, float64(iters)*flop/time.Since(start).Seconds()/1e9)
	}
	return gflops, bitwise
}

// reductionSecs times both reduction stages of one values-only two-stage
// solve at tile size nb (the Figure 5 measurement).
func reductionSecs(a *matrix.Dense, nb, workers int) (stage1, stage2 float64, err error) {
	tc := trace.New()
	_, err = core.SyevTwoStage(context.Background(), a,
		core.Options{Method: core.MethodDC, NB: nb, Workers: workers, Collector: tc})
	if err != nil {
		return 0, 0, fmt.Errorf("nb=%d solve failed: %w", nb, err)
	}
	stage1 = tc.PhaseTime(trace.PhaseStage1).Seconds()
	stage2 = tc.PhaseTime(trace.PhaseStage2).Seconds()
	if stage1+stage2 <= 0 {
		return 0, 0, fmt.Errorf("nb=%d reported no reduction time", nb)
	}
	return stage1, stage2, nil
}

// bestOf returns the shortest of reps timed calls, in seconds.
func bestOf(reps int, timed func() time.Duration) float64 {
	best := timed()
	for r := 1; r < reps; r++ {
		best = min(best, timed())
	}
	return best.Seconds()
}

// stage1Secs times the scheduled stage-1 reduction at one look-ahead depth,
// after an untimed run that fills the arena. Every depth produces the same
// bits — the depth only steers the ready queue — so only time is returned.
func stage1Secs(s *sched.Scheduler, a *matrix.Dense, nb, depth, reps int) float64 {
	ws := work.NewArena()
	cfg := band.Config{NB: nb, Lookahead: depth}
	band.ReduceWith(a, cfg, s.NewJob(nil), ws, nil)
	return bestOf(reps, func() time.Duration {
		start := time.Now()
		band.ReduceWith(a, cfg, s.NewJob(nil), ws, nil)
		return time.Since(start)
	})
}

// backtransFixture is one reduction, one chase and one Q₂ plan, with a dense
// n×n stand-in for the eigenvector matrix: what the column-block sweep
// applies the fused back-transformation to.
type backtransFixture struct {
	f    *band.Factor
	plan *backtransform.Plan
	e    *matrix.Dense
	dst  *matrix.Dense
}

// newBacktransFixture reduces a (which it leaves untouched) and also uses it
// as the stand-in for E: any dense n×n matrix will do.
func newBacktransFixture(a *matrix.Dense, nb int) *backtransFixture {
	ws := work.NewArena()
	f := band.Reduce(a, nb, nil, ws, nil)
	res := bulge.Chase(f.Band, nil, 0, true, ws, nil)
	return &backtransFixture{
		f:    f,
		plan: backtransform.NewPlan(res, 0, ws),
		e:    a,
		dst:  matrix.NewDense(a.Rows, a.Cols),
	}
}

// fusedSecs times the fused back-transformation at one column-block width.
// Every width produces the same bits — the width only partitions independent
// columns — so only time is returned.
func (fx *backtransFixture) fusedSecs(s *sched.Scheduler, colBlock, reps int) float64 {
	return bestOf(reps, func() time.Duration {
		fx.dst.CopyFrom(fx.e)
		var job *sched.Job
		if s != nil {
			job = s.NewJob(nil)
		}
		start := time.Now()
		fx.plan.ApplyFused(fx.f, fx.dst, job, colBlock, nil)
		return time.Since(start)
	})
}
