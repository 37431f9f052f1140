package tridiag

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/testmat"
)

// laplacian121 returns the 1-2-1 tridiagonal matrix whose eigenvalues are
// known analytically: λ_k = 2 + 2·cos(kπ/(n+1)), k = 1..n.
func laplacian121(n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = 1
	}
	return
}

func analytic121(n int) []float64 {
	vals := make([]float64, n)
	for k := 1; k <= n; k++ {
		// Ascending order: cos decreasing in k, so reverse.
		vals[n-k] = 2 + 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	return vals
}

// wilkinson returns the Wilkinson W_n^+ matrix (n odd): d = |i − (n−1)/2|
// reversed shape, e = 1. Its upper eigenvalues come in notoriously close
// pairs — a classic stress test for deflation and orthogonality.
func wilkinson(n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n-1)
	m := (n - 1) / 2
	for i := range d {
		d[i] = math.Abs(float64(i - m))
	}
	for i := range e {
		e[i] = 1
	}
	return
}

func randTridiag(rng *rand.Rand, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, max(0, n-1))
	for i := range d {
		d[i] = rng.NormFloat64() * 3
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return
}

// checkTol bounds every testmat.Check and SpectrumError score in this
// package's tests, in units of n·ε·‖T‖.
const checkTol = 50

// stedc, stebz and stein run the tridiagonal solvers inline on a fresh
// WorkSet, the way a sequential solve does.
func stedc(d, e []float64) ([]float64, *matrix.Dense, error) {
	return StedcSched(d, e, NewWorkSet(1), nil, 0, nil)
}

func stebz(d, e []float64, il, iu int) []float64 {
	return StebzSched(d, e, il, iu, NewWorkSet(1), nil, nil)
}

func stein(d, e, w []float64) (*matrix.Dense, error) {
	return SteinSched(d, e, w, NewWorkSet(1), nil, nil)
}

func TestSteqr121Analytic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 50, 121} {
		d, e := laplacian121(n)
		z := matrix.Eye(n)
		if err := Steqr(d, e, z, NewWorkSet(1).Seq()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := analytic121(n)
		for i := range want {
			if math.Abs(d[i]-want[i]) > 1e-12*float64(n) {
				t.Fatalf("n=%d: eigenvalue %d = %.15g, want %.15g", n, i, d[i], want[i])
			}
		}
		d0, e0 := laplacian121(n)
		if _, err := testmat.Check((&matrix.Tridiagonal{D: d0, E: e0}).ToDense(), d, z, checkTol); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSteqrRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 7, 33, 100} {
		d, e := randTridiag(rng, n)
		d0 := append([]float64(nil), d...)
		e0 := append([]float64(nil), e...)
		z := matrix.Eye(n)
		if err := Steqr(d, e, z, NewWorkSet(1).Seq()); err != nil {
			t.Fatal(err)
		}
		if _, err := testmat.Check((&matrix.Tridiagonal{D: d0, E: e0}).ToDense(), d, z, checkTol); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSteqrTransformsExistingBasis(t *testing.T) {
	// Passing a non-identity basis B must yield B·E where E are the
	// eigenvectors computed from the identity start.
	rng := rand.New(rand.NewSource(12))
	n := 20
	d, e := randTridiag(rng, n)
	dA := append([]float64(nil), d...)
	eA := append([]float64(nil), e...)
	zI := matrix.Eye(n)
	if err := Steqr(dA, eA, zI, NewWorkSet(1).Seq()); err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	dB := append([]float64(nil), d...)
	eB := append([]float64(nil), e...)
	zB := b.Clone()
	if err := Steqr(dB, eB, zB, NewWorkSet(1).Seq()); err != nil {
		t.Fatal(err)
	}
	want := matrix.NewDense(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, b.Data, b.Stride, zI.Data, zI.Stride, 0, want.Data, want.Stride)
	// Columns may differ by sign only if eigenvalues are distinct and the
	// rotation sequence is identical — it is, since d,e identical. Direct
	// comparison is valid.
	if !zB.Equalish(want, 1e-10) {
		t.Fatal("Steqr with basis B != B · Steqr with identity")
	}
}

func TestSterfMatchesSteqr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 17, 64} {
		d, e := randTridiag(rng, n)
		d1 := append([]float64(nil), d...)
		e1 := append([]float64(nil), e...)
		d2 := append([]float64(nil), d...)
		e2 := append([]float64(nil), e...)
		if err := Sterf(d1, e1); err != nil {
			t.Fatal(err)
		}
		if err := Steqr(d2, e2, nil, NewWorkSet(1).Seq()); err != nil {
			t.Fatal(err)
		}
		if e := testmat.SpectrumError(d1, d2); !(e <= checkTol) {
			t.Fatalf("n=%d: Sterf off Steqr by %.3g n·ε·‖T‖", n, e)
		}
	}
}

// TestSterfHard holds the root-free iteration to the hard classes the D&C is
// held to, against two independent methods on T brought to order one — Steqr
// (rotations, square roots) and bisection — within TestStedcHard's eigenvalue
// budget; the 1e±150 rows pass only because each block is scaled before it is
// squared. It also pins the budget semantics: n·MaxIterQL sweeps in all, and
// ErrNoConvergence when a block needs one more.
func TestSterfHard(t *testing.T) {
	for _, r := range hardTridiagonals() {
		n := len(r.d)
		got := append([]float64(nil), r.d...)
		if err := Sterf(got, append([]float64(nil), r.e...)); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		sd, se := r.unscaled()
		bis := stebz(sd, se, 1, n)
		qr, qe := append([]float64(nil), sd...), append([]float64(nil), se...)
		if err := Steqr(qr, qe, nil, NewWorkSet(1).Seq()); err != nil {
			t.Fatalf("%s: Steqr: %v", r.name, err)
		}
		if _, err := testmat.Check((&matrix.Tridiagonal{D: r.d, E: r.e}).ToDense(), got, nil, checkTol); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for i := range got {
			got[i] = math.Ldexp(got[i], -r.unexp)
		}
		eB, eQ := testmat.SpectrumError(got, bis), testmat.SpectrumError(got, qr)
		t.Logf("%-16s n = %4d: off bisection by %.3g, off Steqr by %.3g n·ε·‖T‖", r.name, n, eB, eQ)
		if !(eB <= checkTol) || !(eQ <= checkTol) {
			t.Errorf("%s: eigenvalues off bisection by %.3g and off Steqr by %.3g n·ε·‖T‖, want ≤ %d", r.name, eB, eQ, checkTol)
		}
	}

	defer func(m int) { MaxIterQL = m }(MaxIterQL)
	MaxIterQL = 0
	d, e := wilkinson(21)
	if err := Sterf(d, e); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("no sweeps allowed on an unreduced matrix: got %v, want ErrNoConvergence", err)
	}
	d, e = []float64{3, 1, 2, 5}, []float64{0, 1, 0} // 1×1 and 2×2 blocks need no sweep
	if err := Sterf(d, e); err != nil {
		t.Errorf("no sweeps allowed on 1×1 and 2×2 blocks: %v", err)
	} else if want := []float64{(3 - math.Sqrt(5)) / 2, (3 + math.Sqrt(5)) / 2, 3, 5}; math.Abs(d[0]-want[0]) > 1e-15 || math.Abs(d[1]-want[1]) > 1e-15 || d[2] != 3 || d[3] != 5 {
		t.Errorf("1×1 and 2×2 blocks: got %v, want %v", d, want)
	}
}

func TestSturmCountMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d, e := randTridiag(rng, 40)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return SturmCount(d, e, a) <= SturmCount(d, e, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Count below the spectrum is 0, above is n.
	bound := maxAbsBound(d, e) + 1
	if SturmCount(d, e, -bound) != 0 {
		t.Fatal("count below spectrum != 0")
	}
	if SturmCount(d, e, bound) != 40 {
		t.Fatal("count above spectrum != n")
	}
}

func TestStebzMatchesSteqr(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 5, 30, 80} {
		d, e := randTridiag(rng, n)
		dq := append([]float64(nil), d...)
		eq := append([]float64(nil), e...)
		if err := Steqr(dq, eq, nil, NewWorkSet(1).Seq()); err != nil {
			t.Fatal(err)
		}
		w := stebz(d, e, 1, n)
		if e := testmat.SpectrumError(w, dq); !(e <= checkTol) {
			t.Fatalf("n=%d: Stebz off Steqr by %.3g n·ε·‖T‖", n, e)
		}
	}
}

func TestStebzSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 50
	d, e := randTridiag(rng, n)
	all := stebz(d, e, 1, n)
	sub := stebz(d, e, 11, 20)
	if e := testmat.SpectrumError(sub, all[10:20]); !(e <= checkTol) {
		t.Fatalf("subset off the full spectrum's slice by %.3g", e)
	}
}

func TestSteinResidualAndOrtho(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 10, 60} {
		d, e := randTridiag(rng, n)
		w := stebz(d, e, 1, n)
		z, err := stein(d, e, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), w, z, checkTol); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSteinWilkinsonClusters(t *testing.T) {
	// W21+ has eigenvalue pairs agreeing to ~1e-15; inverse iteration
	// without reorthogonalization would return parallel vectors.
	n := 21
	d, e := wilkinson(n)
	w := stebz(d, e, 1, n)
	z, err := stein(d, e, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), w, z, checkTol); err != nil {
		t.Fatalf("Wilkinson: %v", err)
	}
}

func TestSteinSubsetVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n := 40
	d, e := randTridiag(rng, n)
	w := stebz(d, e, 5, 14) // 10 eigenpairs from the interior
	z, err := stein(d, e, w)
	if err != nil {
		t.Fatal(err)
	}
	if z.Cols != 10 {
		t.Fatalf("expected 10 vectors, got %d", z.Cols)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), w, z, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestStedcMatchesSteqr(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 16, 33, 64, 100, 150} {
		d, e := randTridiag(rng, n)
		vals, q, err := stedc(d, e)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dq := append([]float64(nil), d...)
		eq := append([]float64(nil), e...)
		if err := Steqr(dq, eq, nil, NewWorkSet(1).Seq()); err != nil {
			t.Fatal(err)
		}
		if e := testmat.SpectrumError(vals, dq); !(e <= checkTol) {
			t.Fatalf("n=%d: Stedc off Steqr by %.3g n·ε·‖T‖", n, e)
		}
		if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, checkTol); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestStedc121AndWilkinson(t *testing.T) {
	// 1-2-1: massive deflation candidates (uniform structure).
	n := 121
	d, e := laplacian121(n)
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic121(n)
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-11 {
			t.Fatalf("121 eigenvalue %d: %.15g want %.15g", i, vals[i], want[i])
		}
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, checkTol); err != nil {
		t.Fatalf("1-2-1: %v", err)
	}
	// Wilkinson: clustered pairs stress the deflation logic.
	wd, we := wilkinson(101)
	vals, q, err = stedc(wd, we)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: wd, E: we}).ToDense(), vals, q, checkTol); err != nil {
		t.Fatalf("Wilkinson: %v", err)
	}
}

func TestStedcDecoupled(t *testing.T) {
	// Zero coupling in the middle exercises the block-diagonal path.
	n := 80
	rng := rand.New(rand.NewSource(20))
	d, e := randTridiag(rng, n)
	e[n/2-1] = 0
	e[10] = 0
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestStedcIdenticalDiagonal(t *testing.T) {
	// d constant, e constant: extreme deflation pressure in every merge.
	n := 90
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 5
	}
	for i := range e {
		e[i] = 1e-3
	}
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSumInvariantsProperty(t *testing.T) {
	// Trace and Frobenius norm are preserved by every solver.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		d, e := randTridiag(rng, n)
		vals, _, err := stedc(d, e)
		if err != nil {
			return false
		}
		_, err = testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, nil, checkTol)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroMatrix(t *testing.T) {
	n := 10
	d := make([]float64, n)
	e := make([]float64, n-1)
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalue %g", v)
		}
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, 0); err != nil {
		t.Fatalf("zero matrix: %v", err)
	}
}

func TestGradedMatrix(t *testing.T) {
	// Strongly graded diagonal (d_i = 10^{-i}) — a classic accuracy stress:
	// trace/Frobenius invariants and cross-method agreement must survive.
	n := 24
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = math.Pow(10, -float64(i)/2)
	}
	for i := range e {
		e[i] = 1e-4 * d[i]
	}
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	dq := append([]float64(nil), d...)
	eq := append([]float64(nil), e...)
	if err := Steqr(dq, eq, nil, NewWorkSet(1).Seq()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(vals[i]-dq[i]) > 1e-13 {
			t.Fatalf("graded eigenvalue %d: D&C %g vs QR %g", i, vals[i], dq[i])
		}
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), vals, q, checkTol); err != nil {
		t.Fatalf("graded: %v", err)
	}
}

func TestReversedAndNegativeSpectra(t *testing.T) {
	// Negating T negates and reverses the spectrum.
	rng := rand.New(rand.NewSource(21))
	n := 40
	d, e := randTridiag(rng, n)
	v1, _, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	dneg := make([]float64, n)
	eneg := make([]float64, n-1)
	for i := range d {
		dneg[i] = -d[i]
	}
	for i := range e {
		eneg[i] = -e[i]
	}
	v2, _, err := stedc(dneg, eneg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		v1[i] = -v1[i]
	}
	slices.Reverse(v1)
	if e := testmat.SpectrumError(v2, v1); !(e <= checkTol) {
		t.Fatalf("spectrum of −T off −λ(T) by %.3g n·ε·‖T‖", e)
	}
}

func TestSteinDuplicateEigenvalueInputs(t *testing.T) {
	// Passing exactly equal eigenvalues (as bisection can produce for tight
	// clusters) must still give orthogonal vectors via the perturbation +
	// reorthogonalization path.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = 1e-14
	}
	w := []float64{2, 2, 2} // three numerically identical eigenvalues
	z, err := stein(d, e, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check((&matrix.Tridiagonal{D: d, E: e}).ToDense(), w, z, checkTol); err != nil {
		t.Fatalf("duplicate eigenvalues: %v", err)
	}
}

func TestStebzDegenerate(t *testing.T) {
	if got := stebz(nil, nil, 1, 0); got != nil {
		// n = 0 returns nil regardless of indices.
		t.Fatalf("empty Stebz returned %v", got)
	}
	d := []float64{5}
	if got := stebz(d, nil, 1, 1); len(got) != 1 || math.Abs(got[0]-5) > 1e-12 {
		t.Fatalf("1x1 Stebz = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad range should panic")
		}
	}()
	stebz([]float64{1, 2}, []float64{0}, 2, 1)
}
