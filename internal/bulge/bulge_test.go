package bulge

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/tridiag"
)

func randBand(rng *rand.Rand, n, kd int) *matrix.SymBand {
	b := matrix.NewSymBand(n, kd)
	for j := 0; j < n; j++ {
		for i := j; i <= min(n-1, j+b.KD); i++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	return b
}

// buildQ2 accumulates the dense Q₂ = H(0,0)·H(0,1)⋯ from the recorded
// reflectors in generation order.
func buildQ2(res *Result) *matrix.Dense {
	n := res.N
	q := matrix.Eye(n)
	work := make([]float64, n)
	for _, r := range res.Refs {
		if r.Tau == 0 {
			continue
		}
		v := make([]float64, n)
		v[r.Row] = 1
		copy(v[r.Row+1:], r.V)
		// q := q·H (right multiplication accumulates the product in
		// generation order).
		householder.Larf(blas.Right, n, n, v, 1, r.Tau, q.Data, q.Stride, work)
	}
	return q
}

func TestChaseTridiagonalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, kd int }{{6, 2}, {10, 3}, {16, 4}, {17, 5}, {24, 4}, {30, 8}, {12, 11}, {9, 2}} {
		b := randBand(rng, tc.n, tc.kd)
		res := Chase(b, nil, true, nil, nil)
		n := tc.n
		// 1. The result must be tridiagonal: reconstruct and compare.
		q2 := buildQ2(res)
		// Q2ᵀ·B·Q2 == T.
		bd := b.ToDense()
		tmp := matrix.NewDense(n, n)
		blas.Dgemm(blas.Trans, blas.NoTrans, n, n, n, 1, q2.Data, q2.Stride, bd.Data, bd.Stride, 0, tmp.Data, tmp.Stride)
		rec := matrix.NewDense(n, n)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, tmp.Data, tmp.Stride, q2.Data, q2.Stride, 0, rec.Data, rec.Stride)
		td := res.T.ToDense()
		scale := bd.FrobeniusNorm() + 1
		if !rec.Equalish(td, 1e-12*scale*float64(n)) {
			t.Fatalf("n=%d kd=%d: Q2ᵀ·B·Q2 != T", tc.n, tc.kd)
		}
		// 2. Q2 orthogonal.
		if o := testmat.OrthoError(q2); !(o <= 50) {
			t.Fatalf("n=%d kd=%d: ‖Q2ᵀQ2 − I‖ is %.3g n·ε", tc.n, tc.kd, o)
		}
	}
}

func TestChaseEigenvaluesPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ n, kd int }{{20, 4}, {40, 6}, {33, 5}} {
		b := randBand(rng, tc.n, tc.kd)
		res := Chase(b, nil, true, nil, nil)
		// Eigenvalues of T.
		dT := append([]float64(nil), res.T.D...)
		eT := append([]float64(nil), res.T.E...)
		if err := tridiag.Sterf(dT, eT); err != nil {
			t.Fatal(err)
		}
		// Eigenvalues of B via a dense similarity-free route: Sturm counts
		// on the dense matrix are unavailable, so use trace/Frobenius
		// invariants plus a coarse spectral check via Sturm on T against
		// Gershgorin-bounded bisection of B expanded... keep it simple:
		// trace and Frobenius norm.
		var trB, frB float64
		bd := b.ToDense()
		for i := 0; i < tc.n; i++ {
			trB += bd.At(i, i)
			for j := 0; j < tc.n; j++ {
				frB += bd.At(i, j) * bd.At(i, j)
			}
		}
		var trT, frT float64
		for _, v := range dT {
			trT += v
			frT += v * v
		}
		if math.Abs(trB-trT) > 1e-11*float64(tc.n) {
			t.Fatalf("n=%d kd=%d: trace changed: %g vs %g", tc.n, tc.kd, trB, trT)
		}
		if math.Abs(frB-frT) > 1e-9*frB {
			t.Fatalf("n=%d kd=%d: Frobenius changed", tc.n, tc.kd)
		}
	}
}

func TestChaseAlreadyTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randBand(rng, 12, 1)
	res := Chase(b, nil, true, nil, nil)
	if len(res.Refs) != 0 {
		t.Fatalf("kd=1 input should produce no reflectors, got %d", len(res.Refs))
	}
	for i := 0; i < 12; i++ {
		if res.T.D[i] != b.At(i, i) {
			t.Fatal("kd=1 diagonal altered")
		}
	}
}

func TestChaseSmallAndDegenerate(t *testing.T) {
	// n ≤ 2 and zero matrices must not crash.
	for _, n := range []int{0, 1, 2, 3} {
		b := matrix.NewSymBand(n, min(2, max(0, n-1)))
		res := Chase(b, nil, true, nil, nil)
		if res.T.N() != n {
			t.Fatalf("n=%d: bad T size", n)
		}
	}
	// Diagonal matrix in band form: nothing to chase.
	b := matrix.NewSymBand(8, 3)
	for i := 0; i < 8; i++ {
		b.Set(i, i, float64(i))
	}
	res := Chase(b, nil, true, nil, nil)
	for i := 0; i < 8; i++ {
		if res.T.D[i] != float64(i) {
			t.Fatal("diagonal matrix altered")
		}
		if i < 7 && res.T.E[i] != 0 {
			t.Fatal("diagonal matrix grew off-diagonal entries")
		}
	}
}

// TestChaseScheduledMatchesSequential: the task graph must reproduce the
// sequential chase bit for bit — T and every reflector — at every worker
// count, on shapes whose first sweep has four, five and fifteen kernels, is a
// single kernel, and on a matrix narrower than two bandwidths.
func TestChaseScheduledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name  string
		n, kd int
	}{
		{"4-kernel sweep", 20, 5},
		{"5-kernel sweep", 26, 5},
		{"15-kernel sweep", 60, 4},
		{"one-kernel sweep", 6, 5},
		{"n < 2b", 8, 5},
	} {
		if got, want := sweepSteps(tc.n, tc.kd, 0), 1+(tc.n-2)/tc.kd; got != want {
			t.Fatalf("%s: first sweep has %d kernels, want %d", tc.name, got, want)
		}
		b := randBand(rng, tc.n, tc.kd)
		ref := Chase(b, nil, true, nil, nil)
		for _, workers := range []int{1, 2, 4, 7} {
			s := sched.New(workers)
			got := Chase(b, s.NewJob(nil), true, nil, nil)
			s.Shutdown()
			if !slices.Equal(ref.T.D, got.T.D) || !slices.Equal(ref.T.E, got.T.E) {
				t.Fatalf("%s workers=%d: T differs from the sequential chase", tc.name, workers)
			}
			if len(ref.Refs) != len(got.Refs) {
				t.Fatalf("%s workers=%d: %d reflectors, want %d", tc.name, workers, len(got.Refs), len(ref.Refs))
			}
			for i, r := range ref.Refs {
				g := got.Refs[i]
				if g.Sweep != r.Sweep || g.Level != r.Level || g.Row != r.Row || g.Tau != r.Tau || !slices.Equal(g.V, r.V) {
					t.Fatalf("%s workers=%d: reflector %d (sweep %d level %d) differs", tc.name, workers, i, r.Sweep, r.Level)
				}
			}
		}
	}
}

// TestChaseCancelDrains cancels a scheduled chase part-way: a task that
// cancels the job's context is made to depend on row block 0, which the first
// kernel of every early sweep writes, so it runs after some kernels and — the
// rest of the chase being one long dependence chain behind those sweeps —
// before most. Gate tasks on a job of their own hold every worker until the
// whole chase and the canceling task are submitted. Whatever the worker count,
// some kernels must have run, the others must have drained without running,
// Wait must return the context's error, and the scheduler must serve a
// healthy chase afterwards.
func TestChaseCancelDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, kd = 400, 5
	b := randBand(rng, n, kd)
	ref := Chase(b, nil, true, nil, nil)
	all := 0
	forEachStep(n, kd, func(int, int) bool { all++; return true })
	for _, workers := range []int{1, 2, 4, 7} {
		s := sched.New(workers)
		gate := make(chan struct{})
		var held sync.WaitGroup
		held.Add(workers)
		hold := s.NewJob(nil)
		for w := 0; w < workers; w++ {
			hold.Submit(sched.Task{Run: func(int) {
				held.Done()
				<-gate
			}})
		}
		held.Wait()
		ctx, cancel := context.WithCancel(context.Background())
		job := s.NewJob(ctx)
		c := newChaser(b, workers, nil, nil)
		c.schedule(job)
		job.Submit(sched.Task{Priority: 1 << 20, Deps: []sched.Dep{sched.RW(0)}, Run: func(int) { cancel() }})
		close(gate)
		if err := job.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Wait returned %v, want context.Canceled", workers, err)
		}
		ran := 0
		for i := range c.refs {
			if c.refs[i].V != nil {
				ran++
			}
		}
		if ran == 0 || ran >= all {
			t.Fatalf("workers=%d: %d of %d kernels ran, want some but not all", workers, ran, all)
		}
		got := Chase(b, s.NewJob(nil), true, nil, nil)
		s.Shutdown()
		if !slices.Equal(ref.T.D, got.T.D) || !slices.Equal(ref.T.E, got.T.E) {
			t.Fatalf("workers=%d: the chase after a canceled one differs from the sequential chase", workers)
		}
	}
}

func TestReflectorLattice(t *testing.T) {
	// Reflector (s, ℓ) must start at row s + ℓ·bw + 1 and stay within the
	// matrix; essential lengths never exceed bw−1.
	rng := rand.New(rand.NewSource(6))
	n, kd := 30, 4
	b := randBand(rng, n, kd)
	res := Chase(b, nil, true, nil, nil)
	for _, r := range res.Refs {
		wantRow := r.Sweep + r.Level*kd + 1
		if r.Row != wantRow {
			t.Fatalf("reflector (%d,%d) at row %d, want %d", r.Sweep, r.Level, r.Row, wantRow)
		}
		if len(r.V) > kd-1 {
			t.Fatalf("reflector (%d,%d) essential length %d > kd-1", r.Sweep, r.Level, len(r.V))
		}
		if r.Row+len(r.V) > n-1 {
			t.Fatalf("reflector (%d,%d) exceeds matrix", r.Sweep, r.Level)
		}
	}
}

// TestChaseValuesOnly checks the wantQ=false fast path: no reflectors are
// recorded (the back-transformation never runs for values-only solves) and
// the tridiagonal output is identical to the full chase.
func TestChaseValuesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, kd int }{{17, 3}, {32, 4}, {40, 6}} {
		b := randBand(rng, tc.n, tc.kd)
		full := Chase(b, nil, true, nil, nil)
		vo := Chase(b, nil, false, nil, nil)
		if vo.Refs != nil {
			t.Fatalf("n=%d kd=%d: values-only chase recorded %d reflectors", tc.n, tc.kd, len(vo.Refs))
		}
		if len(full.Refs) == 0 {
			t.Fatalf("n=%d kd=%d: full chase recorded no reflectors", tc.n, tc.kd)
		}
		for i := range full.T.D {
			if vo.T.D[i] != full.T.D[i] {
				t.Fatalf("n=%d kd=%d: D[%d] differs: %g vs %g", tc.n, tc.kd, i, vo.T.D[i], full.T.D[i])
			}
		}
		for i := range full.T.E {
			if vo.T.E[i] != full.T.E[i] {
				t.Fatalf("n=%d kd=%d: E[%d] differs: %g vs %g", tc.n, tc.kd, i, vo.T.E[i], full.T.E[i])
			}
		}
	}
}
