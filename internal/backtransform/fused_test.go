package backtransform

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/band"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
	"repro/internal/work"
)

// fusedFixture builds the two back-transformation operators of one reduction:
// the stage-1 factor and the Q₂ plan of its bulge chase.
func fusedFixture(rng *rand.Rand, n, nb int, ws *work.Arena) (*band.Factor, *Plan) {
	a := testmat.RandomSym(rng, n)
	f := band.Reduce(a, band.Config{NB: nb}, nil, ws, nil)
	res := bulge.Chase(f.Band, nil, true, ws, nil)
	return f, NewPlan(res, 0, ws)
}

// twoPhase is the sequential per-factor reference of the fused path: every
// Q₂ diamond over the whole of E, then the whole Q₁ sequence over the whole
// of E.
func twoPhase(f *band.Factor, p *Plan, e *matrix.Dense) {
	applyQ2(p, e)
	f.ApplyQ1Block(e, make([]float64, f.Q1Work()), nil)
}

// TestApplyFusedMatchesTwoPhase: the fused single pass — inline and on
// schedulers of several widths, at several column-block widths from one
// column to all of E — is bitwise the two factors applied one after the
// other to the whole of E.
func TestApplyFusedMatchesTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, nb, cols, colBlock int }{
		{30, 6, 30, 7},
		{40, 8, 40, 0},
		{40, 8, 40, 1},
		{40, 8, 40, 40},
		{33, 8, 12, 5}, // thin E
		{24, 24, 24, 6},
	} {
		f, p := fusedFixture(rng, tc.n, tc.nb, nil)
		e := matrix.NewDense(tc.n, tc.cols)
		for i := range e.Data {
			e.Data[i] = rng.NormFloat64()
		}
		want := e.Clone()
		twoPhase(f, p, want)

		// Inline job.
		got := e.Clone()
		p.ApplyFused(f, got, nil, tc.colBlock, nil)
		if !got.Equalish(want, 0) {
			t.Fatalf("n=%d nb=%d cols=%d colBlock=%d: inline fused differs from two-phase",
				tc.n, tc.nb, tc.cols, tc.colBlock)
		}

		// Dynamic scheduler jobs.
		for _, workers := range []int{2, 3, 7} {
			s := sched.New(workers)
			got2 := e.Clone()
			job := s.NewJob(nil)
			p.ApplyFused(f, got2, job, tc.colBlock, nil)
			if err := job.Err(); err != nil {
				t.Fatal(err)
			}
			s.Shutdown()
			if !got2.Equalish(want, 0) {
				t.Fatalf("n=%d nb=%d cols=%d colBlock=%d workers=%d: scheduled fused differs from two-phase",
					tc.n, tc.nb, tc.cols, tc.colBlock, workers)
			}
		}
	}
}

func TestApplyFusedArenaReuse(t *testing.T) {
	// Two fused applies through one arena (worker slabs and scratch
	// retained) must match fresh-allocation results.
	rng := rand.New(rand.NewSource(22))
	ws := work.NewArena()
	n, nb := 28, 7
	for iter := 0; iter < 2; iter++ {
		f, p := fusedFixture(rng, n, nb, ws)
		e := matrix.NewDense(n, n)
		for i := range e.Data {
			e.Data[i] = rng.NormFloat64()
		}
		want := e.Clone()
		twoPhase(f, p, want)
		got := e.Clone()
		s := sched.New(2)
		job := s.NewJob(nil)
		p.ApplyFused(f, got, job, 9, nil)
		if err := job.Err(); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		if !got.Equalish(want, 0) {
			t.Fatalf("iteration %d: arena-backed fused apply differs", iter)
		}
	}
}

func TestApplyFusedCancellation(t *testing.T) {
	// A pre-canceled inline job must stop at the first block boundary and
	// leave the scheduler/job machinery consistent (E's contents are
	// documented as discarded by the caller).
	rng := rand.New(rand.NewSource(23))
	f, p := fusedFixture(rng, 24, 6, nil)
	e := matrix.NewDense(24, 24)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	orig := e.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := sched.Inline(ctx)
	p.ApplyFused(f, e, job, 8, nil)
	if err := job.Err(); err == nil {
		t.Fatal("canceled fused apply reported no error")
	}
	if !e.Equalish(orig, 0) {
		t.Fatal("pre-canceled fused apply modified E")
	}
}

func TestApplyFusedAttributesFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f, p := fusedFixture(rng, 30, 6, nil)
	e := matrix.NewDense(30, 30)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	tc := trace.New()
	p.ApplyFused(f, e, nil, 10, tc)
	q2 := tc.AttributedFlops(trace.PhaseUpdateQ2)
	q1 := tc.AttributedFlops(trace.PhaseUpdateQ1)
	if q2 != p.FlopsPerCol()*int64(e.Cols) {
		t.Fatalf("Q2 attribution %d, want %d", q2, p.FlopsPerCol()*int64(e.Cols))
	}
	if q1 != f.Q1FlopsPerCol()*int64(e.Cols) {
		t.Fatalf("Q1 attribution %d, want %d", q1, f.Q1FlopsPerCol()*int64(e.Cols))
	}
	if q1 <= 0 || q2 <= 0 {
		t.Fatal("attribution not recorded")
	}
}
