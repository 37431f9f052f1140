package band

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
)

// prepared packs a freshly factored reflector block (both forms) the way the
// reducer's GEQRT/TSQRT tasks do, plus scratch for applying it to up to n
// free rows/columns from either side.
func prepared(ts bool, rows, k int, v []float64, ldv int, t []float64, n int) (*householder.Block, []float64) {
	forms := householder.FormH | householder.FormHT
	h := new(householder.Block)
	h.Prepare(ts, rows, k, v, ldv, t, k, forms,
		make([]float64, householder.PackedLen(ts, rows, k, forms)),
		make([]float64, householder.PrepareWork(rows, k)))
	return h, make([]float64, householder.ApplyWork(blas.Right, rows, k, n))
}

func TestGeqrtReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{4, 4}, {6, 4}, {3, 5}, {8, 8}} {
		m, n := dims[0], dims[1]
		k := min(m, n)
		a := matrix.NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		orig := a.Clone()
		tm := make([]float64, k*k)
		work := make([]float64, k+n)
		Geqrt(m, n, a.Data, a.Stride, tm, k, work, nil)
		// R = upper triangle of the factored tile.
		r := matrix.NewDense(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= min(j, m-1); i++ {
				r.Set(i, j, a.At(i, j))
			}
		}
		// Q·R must equal the original: apply Q to R via Ormqr.
		qr := r.Clone()
		h, wk := prepared(false, m, k, a.Data, a.Stride, tm, n)
		Ormqr(blas.Left, blas.NoTrans, n, h, qr.Data, qr.Stride, wk, nil)
		if !qr.Equalish(orig, 1e-12) {
			t.Fatalf("m=%d n=%d: Q·R != A", m, n)
		}
		// Orthogonality: Qᵀ·Q·X == X.
		x := matrix.NewDense(m, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		y := x.Clone()
		Ormqr(blas.Left, blas.NoTrans, 3, h, y.Data, y.Stride, wk, nil)
		Ormqr(blas.Left, blas.Trans, 3, h, y.Data, y.Stride, wk, nil)
		if !y.Equalish(x, 1e-12) {
			t.Fatalf("m=%d n=%d: Q not orthogonal", m, n)
		}
	}
}

func TestTsqrtTsmqrReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m2 := range []int{1, 3, 4, 7} {
		nb := 4
		// Triangular top R0 and dense bottom A2.
		r0 := matrix.NewDense(nb, nb)
		for j := 0; j < nb; j++ {
			for i := 0; i <= j; i++ {
				r0.Set(i, j, rng.NormFloat64())
			}
		}
		a2 := matrix.NewDense(m2, nb)
		for i := range a2.Data {
			a2.Data[i] = rng.NormFloat64()
		}
		r := r0.Clone()
		v2 := a2.Clone()
		tm := make([]float64, nb*nb)
		work := make([]float64, 2*nb)
		Tsqrt(nb, m2, r.Data, r.Stride, v2.Data, v2.Stride, tm, nb, work, nil)
		// Check: Hᵀ·[R0; A2] == [R; 0] by applying Tsmqr to the originals.
		c1 := r0.Clone()
		c2 := a2.Clone()
		h, wk := prepared(true, m2, nb, v2.Data, v2.Stride, tm, 5)
		Tsmqr(blas.Left, blas.Trans, nb, h, c1.Data, c1.Stride, c2.Data, c2.Stride, wk, nil)
		if !c1.Equalish(r, 1e-12) {
			t.Fatalf("m2=%d: top block != R after Hᵀ", m2)
		}
		if c2.MaxAbs() > 1e-12 {
			t.Fatalf("m2=%d: bottom block not annihilated: %g", m2, c2.MaxAbs())
		}
		// Right application consistency: (Hᵀ·Xᵀ)ᵀ == X·H, so Left-Trans on
		// the transpose must match Right-NoTrans.
		mc := 5
		x1 := matrix.NewDense(mc, nb)
		x2 := matrix.NewDense(mc, m2)
		for i := range x1.Data {
			x1.Data[i] = rng.NormFloat64()
		}
		for i := range x2.Data {
			x2.Data[i] = rng.NormFloat64()
		}
		y1 := x1.Transpose()
		y2 := x2.Transpose()
		Tsmqr(blas.Left, blas.Trans, mc, h, y1.Data, y1.Stride, y2.Data, y2.Stride, wk, nil)
		Tsmqr(blas.Right, blas.NoTrans, mc, h, x1.Data, x1.Stride, x2.Data, x2.Stride, wk, nil)
		if !x1.Equalish(y1.Transpose(), 1e-12) || !x2.Equalish(y2.Transpose(), 1e-12) {
			t.Fatalf("m2=%d: right application inconsistent with left-on-transpose", m2)
		}
	}
}

func TestReduceBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, nb int }{{12, 4}, {16, 4}, {20, 8}, {13, 4}, {30, 7}, {8, 8}, {5, 8}, {9, 1}} {
		a := testmat.RandomSym(rng, tc.n)
		f := Reduce(a.Clone(), Config{NB: tc.nb}, nil, nil, nil)
		if f.Band.KD > tc.nb {
			t.Fatalf("n=%d nb=%d: band KD %d > nb", tc.n, tc.nb, f.Band.KD)
		}
		// The reduced tile matrix must be ~zero strictly below the R of the
		// subdiagonal tiles: verified implicitly by reconstruction below.
		n := tc.n
		q := matrix.Eye(n)
		f.ApplyQ1Block(q, make([]float64, f.Q1Work()), nil)
		if o := testmat.OrthoError(q); !(o <= 50) {
			t.Fatalf("n=%d nb=%d: ‖Q1ᵀQ1 − I‖ is %.3g n·ε", tc.n, tc.nb, o)
		}
		// Reconstruction: Q1·B·Q1ᵀ == A.
		bd := f.Band.ToDense()
		tmp := matrix.NewDense(n, n)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, bd.Data, bd.Stride, 0, tmp.Data, tmp.Stride)
		rec := matrix.NewDense(n, n)
		blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, tmp.Data, tmp.Stride, q.Data, q.Stride, 0, rec.Data, rec.Stride)
		scale := a.FrobeniusNorm() + 1
		if !rec.Equalish(a, 1e-12*scale*float64(n)) {
			t.Fatalf("n=%d nb=%d: Q1·B·Q1ᵀ != A", tc.n, tc.nb)
		}
	}
}

func TestReduceScheduledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, nb := 24, 4
	a := testmat.RandomSym(rng, n)
	fseq := Reduce(a.Clone(), Config{NB: nb}, nil, nil, nil)
	for _, workers := range []int{1, 2, 4} {
		s := sched.New(workers)
		fpar := Reduce(a.Clone(), Config{NB: nb}, s.NewJob(nil), nil, nil)
		s.Shutdown()
		// Each tile sees an identical sequence of operations regardless of
		// interleaving, so the results must match bit for bit.
		factorsIdentical(t, fmt.Sprintf("workers=%d", workers), fseq, fpar)
	}
}

// TestApplyQ1ParallelMatchesSequential pins what lets the fused
// back-transformation hand each of its parallel tasks one column block: Q₁
// applied block by block is bitwise the sequential application to the whole
// of C, at any block width.
func TestApplyQ1ParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, nb := 24, 6
	a := testmat.RandomSym(rng, n)
	f := Reduce(a, Config{NB: nb}, nil, nil, nil)
	c := matrix.NewDense(n, n)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	wk := make([]float64, f.Q1Work())
	want := c.Clone()
	f.ApplyQ1Block(want, wk, nil)
	for _, colBlock := range []int{1, 5, 16} {
		got := c.Clone()
		for j0 := 0; j0 < n; j0 += colBlock {
			f.ApplyQ1Block(got.View(0, j0, n, min(colBlock, n-j0)), wk, nil)
		}
		if !got.Equalish(want, 0) {
			t.Fatalf("colBlock=%d: blocked ApplyQ1Block differs from the whole-matrix application", colBlock)
		}
	}
}

func TestReduceSpectrumPreserved(t *testing.T) {
	// Trace and Frobenius norm of B equal those of A (similarity transform).
	rng := rand.New(rand.NewSource(7))
	n, nb := 26, 5
	a := testmat.RandomSym(rng, n)
	f := Reduce(a.Clone(), Config{NB: nb}, nil, nil, nil)
	bd := f.Band.ToDense()
	var trA, frA, trB, frB float64
	for i := 0; i < n; i++ {
		trA += a.At(i, i)
		trB += bd.At(i, i)
		for j := 0; j < n; j++ {
			frA += a.At(i, j) * a.At(i, j)
			frB += bd.At(i, j) * bd.At(i, j)
		}
	}
	if math.Abs(trA-trB) > 1e-11*float64(n) {
		t.Fatalf("trace not preserved: %g vs %g", trA, trB)
	}
	if math.Abs(frA-frB) > 1e-9*frA {
		t.Fatalf("Frobenius not preserved: %g vs %g", frA, frB)
	}
}

func TestReduceTinyAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// n ≤ nb: nothing to do, B == A.
	a := testmat.RandomSym(rng, 3)
	f := Reduce(a.Clone(), Config{NB: 8}, nil, nil, nil)
	if !f.Band.ToDense().Equalish(a, 0) {
		t.Fatal("n<nb should leave the matrix unchanged")
	}
	// n == 1.
	one := matrix.NewDense(1, 1)
	one.Set(0, 0, 42)
	f1 := Reduce(one, Config{NB: 4}, nil, nil, nil)
	if f1.Band.At(0, 0) != 42 {
		t.Fatal("1x1 reduce broken")
	}
}

// TestReduceNamesTasksOnlyWhenTraced: the stage-1 tasks are labelled for a
// tracing scheduler (the labels are what a task timeline shows) and carry no
// label — so no per-task string — for a plain one.
func TestReduceNamesTasksOnlyWhenTraced(t *testing.T) {
	a := testmat.RandomSym(rand.New(rand.NewSource(9)), 20)
	s := sched.New(2, sched.WithTrace())
	defer s.Shutdown()
	job := s.NewJob(nil)
	if !job.Traced() || (*sched.Job)(nil).Traced() {
		t.Fatal("Traced must be true on a tracing scheduler's job and false on a nil job")
	}
	Reduce(a.Clone(), Config{NB: 4}, job, nil, nil)
	seen := false
	for _, ev := range s.Trace() {
		if ev.Name == "" {
			t.Fatal("traced stage-1 task without a name")
		}
		seen = seen || ev.Name == "GEQRT(1,0)"
	}
	if !seen {
		t.Fatal("no GEQRT(1,0) event in the stage-1 trace")
	}
	plain := sched.New(2)
	defer plain.Shutdown()
	if plain.NewJob(nil).Traced() {
		t.Fatal("Traced on a scheduler without WithTrace")
	}
}
