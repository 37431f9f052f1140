package backtransform

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
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

// applyQ2 computes E := Q₂·E over the whole of E in one sequential
// application — the per-factor reference.
func applyQ2(p *Plan, e *matrix.Dense) {
	p.ApplyBlock(e, make([]float64, p.Work()), nil)
}

// denseQ2 builds Q₂ explicitly from the reflectors in generation order.
func denseQ2(res *bulge.Result) *matrix.Dense {
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
		householder.Larf(blas.Right, n, n, v, 1, r.Tau, q.Data, q.Stride, work)
	}
	return q
}

func TestApplyNaiveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, kd, m := 20, 4, 7
	b := randBand(rng, n, kd)
	res := bulge.Chase(b, nil, true, nil, nil)
	q2 := denseQ2(res)
	e := matrix.NewDense(n, m)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	want := matrix.NewDense(n, m)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, m, n, 1, q2.Data, q2.Stride, e.Data, e.Stride, 0, want.Data, want.Stride)
	got := e.Clone()
	ApplyNaive(res, got, nil)
	if !got.Equalish(want, 1e-12*float64(n)) {
		t.Fatal("ApplyNaive != dense Q2 multiplication")
	}
}

func TestDiamondMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ n, kd, group int }{
		{20, 4, 1}, {20, 4, 2}, {20, 4, 4}, {20, 4, 8}, // group sweep counts incl. > kd
		{25, 3, 3}, {17, 5, 5}, {40, 6, 6}, {31, 2, 2},
		{12, 11, 4}, // nearly dense band
		{9, 2, 3},
	} {
		b := randBand(rng, tc.n, tc.kd)
		res := bulge.Chase(b, nil, true, nil, nil)
		m := 6
		e := matrix.NewDense(tc.n, m)
		for i := range e.Data {
			e.Data[i] = rng.NormFloat64()
		}
		want := e.Clone()
		ApplyNaive(res, want, nil)
		got := e.Clone()
		applyQ2(NewPlan(res, tc.group, nil), got)
		if !got.Equalish(want, 1e-11*float64(tc.n)) {
			t.Fatalf("n=%d kd=%d group=%d: diamond apply != naive", tc.n, tc.kd, tc.group)
		}
	}
}

// TestApplyParallelMatchesSequential pins what lets the fused
// back-transformation hand each of its parallel tasks one column block: the
// diamonds applied block by block are bitwise the sequential application to
// the whole of E, at any block width.
func TestApplyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, kd := 30, 4
	b := randBand(rng, n, kd)
	res := bulge.Chase(b, nil, true, nil, nil)
	p := NewPlan(res, 0, nil)
	e := matrix.NewDense(n, n)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	want := e.Clone()
	applyQ2(p, want)
	for _, colBlock := range []int{1, 7, 16} {
		got := e.Clone()
		for j0 := 0; j0 < n; j0 += colBlock {
			applyQ2(p, got.View(0, j0, n, min(colBlock, n-j0)))
		}
		if !got.Equalish(want, 0) {
			t.Fatalf("colBlock=%d: blocked ApplyBlock differs from the whole-matrix application", colBlock)
		}
	}
}

func TestPlanReusable(t *testing.T) {
	// The same plan applied to two E matrices gives the same result as two
	// fresh plans (no hidden state mutation).
	rng := rand.New(rand.NewSource(4))
	n, kd := 18, 3
	b := randBand(rng, n, kd)
	res := bulge.Chase(b, nil, true, nil, nil)
	p := NewPlan(res, 0, nil)
	e1 := matrix.NewDense(n, 4)
	e2 := matrix.NewDense(n, 4)
	for i := range e1.Data {
		e1.Data[i] = rng.NormFloat64()
		e2.Data[i] = rng.NormFloat64()
	}
	g1, g2 := e1.Clone(), e2.Clone()
	applyQ2(p, g1)
	applyQ2(p, g2)
	w1, w2 := e1.Clone(), e2.Clone()
	ApplyNaive(res, w1, nil)
	ApplyNaive(res, w2, nil)
	if !g1.Equalish(w1, 1e-11*float64(n)) || !g2.Equalish(w2, 1e-11*float64(n)) {
		t.Fatal("plan reuse produced wrong results")
	}
}

func TestEmptyQ2(t *testing.T) {
	// A tridiagonal input yields no reflectors; apply must be the identity.
	b := matrix.NewSymBand(8, 1)
	for i := 0; i < 8; i++ {
		b.Set(i, i, float64(i))
	}
	res := bulge.Chase(b, nil, true, nil, nil)
	e := matrix.Eye(8)
	applyQ2(NewPlan(res, 0, nil), e)
	if !e.Equalish(matrix.Eye(8), 0) {
		t.Fatal("empty Q2 modified E")
	}
	ApplyNaive(res, e, nil)
	if !e.Equalish(matrix.Eye(8), 0) {
		t.Fatal("empty naive Q2 modified E")
	}
}

func TestApplySubsetColumns(t *testing.T) {
	// Applying Q2 to a thin E (partial eigenvectors, the paper's f < 1
	// scenario) must equal the corresponding columns of the full product.
	rng := rand.New(rand.NewSource(5))
	n, kd := 24, 4
	b := randBand(rng, n, kd)
	res := bulge.Chase(b, nil, true, nil, nil)
	p := NewPlan(res, 0, nil)
	full := matrix.NewDense(n, n)
	for i := range full.Data {
		full.Data[i] = rng.NormFloat64()
	}
	fullOut := full.Clone()
	applyQ2(p, fullOut)
	thin := full.View(0, 2, n, 5).Clone()
	applyQ2(p, thin)
	if !thin.Equalish(fullOut.View(0, 2, n, 5).Clone(), 1e-12*float64(n)) {
		t.Fatal("thin apply != corresponding columns of full apply")
	}
}

func TestPlanStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := randBand(rng, 30, 4)
	res := bulge.Chase(b, nil, true, nil, nil)
	p := NewPlan(res, 4, nil)
	if p.NumBlocks() == 0 {
		t.Fatal("no diamond blocks")
	}
	// An empty plan reports zeros and applies as identity.
	empty := NewPlan(&bulge.Result{N: 5, B: 1}, 0, nil)
	if empty.NumBlocks() != 0 {
		t.Fatal("empty plan has blocks")
	}
}
