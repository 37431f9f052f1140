package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func randMat(rng *rand.Rand, m, n, ld int) []float64 {
	a := make([]float64, ld*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a[i+j*ld] = rng.NormFloat64()
		}
	}
	return a
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// naiveGemm is a triple-loop reference used to validate the blocked kernel.
func naiveGemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA == NoTrans {
			return a[i+l*lda]
		}
		return a[l+i*lda]
	}
	bt := func(l, j int) float64 {
		if transB == NoTrans {
			return b[l+j*ldb]
		}
		return b[j+l*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += at(i, l) * bt(l, j)
			}
			c[i+j*ldc] = alpha*sum + beta*c[i+j*ldc]
		}
	}
}

func maxDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestDdot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Ddot(3, x, 1, y, 1); got != 32 {
		t.Fatalf("Ddot = %v, want 32", got)
	}
	// Strided: elements 0 and 2 of x against 0 and 1 of y.
	if got := Ddot(2, x, 2, y, 1); got != 1*4+3*5 {
		t.Fatalf("strided Ddot = %v, want 19", got)
	}
}

func TestDaxpyDscal(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 1, 1}
	Daxpy(3, 2, x, 1, y, 1)
	want := []float64{3, 5, 7}
	if maxDiff(y, want) != 0 {
		t.Fatalf("Daxpy = %v, want %v", y, want)
	}
	Dscal(3, 0.5, y, 1)
	want = []float64{1.5, 2.5, 3.5}
	if maxDiff(y, want) != 0 {
		t.Fatalf("Dscal = %v, want %v", y, want)
	}
}

func TestDnrm2Scaling(t *testing.T) {
	// Values that would overflow a naive sum of squares.
	x := []float64{3e200, 4e200}
	got := Dnrm2(2, x, 1)
	if math.Abs(got-5e200)/5e200 > tol {
		t.Fatalf("Dnrm2 overflow case = %v, want 5e200", got)
	}
	// And underflow.
	x = []float64{3e-200, 4e-200}
	got = Dnrm2(2, x, 1)
	if math.Abs(got-5e-200)/5e-200 > tol {
		t.Fatalf("Dnrm2 underflow case = %v, want 5e-200", got)
	}
	if Dnrm2(0, nil, 1) != 0 {
		t.Fatal("Dnrm2 of empty vector should be 0")
	}
}

func TestDnrm2MatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw)
		if n > 64 {
			raw = raw[:64]
			n = 64
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 1
			}
			// Keep magnitudes moderate so the naive formula is exact.
			raw[i] = math.Mod(raw[i], 1e3)
		}
		var ss float64
		for _, v := range raw {
			ss += v * v
		}
		want := math.Sqrt(ss)
		got := Dnrm2(n, raw, 1)
		return math.Abs(got-want) <= tol*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdamax(t *testing.T) {
	if got := Idamax(4, []float64{1, -7, 3, 2}, 1); got != 1 {
		t.Fatalf("Idamax = %d, want 1", got)
	}
	if got := Idamax(0, nil, 1); got != -1 {
		t.Fatalf("Idamax empty = %d, want -1", got)
	}
}

func TestDrot(t *testing.T) {
	c, s := math.Cos(0.3), math.Sin(0.3)
	x := []float64{1, 0}
	y := []float64{0, 1}
	Drot(2, x, 1, y, 1, c, s)
	// Rotation preserves norms.
	if math.Abs(x[0]*x[0]+y[0]*y[0]-1) > tol || math.Abs(x[1]*x[1]+y[1]*y[1]-1) > tol {
		t.Fatalf("Drot did not preserve norms: x=%v y=%v", x, y)
	}
}

func TestDgemvAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tr := range []Transpose{NoTrans, Trans} {
		for _, dims := range [][2]int{{5, 3}, {1, 7}, {8, 8}, {13, 2}} {
			m, n := dims[0], dims[1]
			lda := m + 2
			a := randMat(rng, m, n, lda)
			lenX, lenY := n, m
			if tr == Trans {
				lenX, lenY = m, n
			}
			x := randVec(rng, lenX)
			y := randVec(rng, lenY)
			want := make([]float64, lenY)
			copy(want, y)
			// Naive.
			for i := 0; i < lenY; i++ {
				var sum float64
				for l := 0; l < lenX; l++ {
					if tr == NoTrans {
						sum += a[i+l*lda] * x[l]
					} else {
						sum += a[l+i*lda] * x[l]
					}
				}
				want[i] = 1.5*sum + 0.5*want[i]
			}
			Dgemv(tr, m, n, 1.5, a, lda, x, 1, 0.5, y, 1)
			if d := maxDiff(y, want); d > tol {
				t.Fatalf("Dgemv trans=%c m=%d n=%d: max diff %g", tr, m, n, d)
			}
		}
	}
}

func TestDsymvMatchesFullGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 9
	lda := n + 1
	// Build a full symmetric matrix, then run Dsymv on each triangle.
	full := randMat(rng, n, n, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			full[j+i*lda] = full[i+j*lda]
		}
	}
	x := randVec(rng, n)
	want := make([]float64, n)
	Dgemv(NoTrans, n, n, 2.0, full, lda, x, 1, 0, want, 1)
	for _, ul := range []Uplo{Upper, Lower} {
		y := make([]float64, n)
		Dsymv(ul, n, 2.0, full, lda, x, 1, 0, y, 1)
		if d := maxDiff(y, want); d > tol {
			t.Fatalf("Dsymv uplo=%c: max diff %g", ul, d)
		}
	}
}

func TestDgerDsyrDsyr2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 6, 4
	lda := m
	a := randMat(rng, m, n, lda)
	want := append([]float64(nil), a...)
	x, y := randVec(rng, m), randVec(rng, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want[i+j*lda] += 1.25 * x[i] * y[j]
		}
	}
	Dger(m, n, 1.25, x, 1, y, 1, a, lda)
	if d := maxDiff(a, want); d > tol {
		t.Fatalf("Dger: max diff %g", d)
	}

	// Dsyr and Dsyr2 preserve the opposite triangle and update correctly.
	nn := 5
	s := randMat(rng, nn, nn, nn)
	orig := append([]float64(nil), s...)
	xs := randVec(rng, nn)
	ys := randVec(rng, nn)
	Dsyr(Lower, nn, 0.5, xs, 1, s, nn)
	for j := 0; j < nn; j++ {
		for i := 0; i < nn; i++ {
			if i < j { // upper triangle untouched
				if s[i+j*nn] != orig[i+j*nn] {
					t.Fatal("Dsyr touched the upper triangle")
				}
			} else if d := math.Abs(s[i+j*nn] - (orig[i+j*nn] + 0.5*xs[i]*xs[j])); d > tol {
				t.Fatalf("Dsyr wrong at (%d,%d)", i, j)
			}
		}
	}
	s = append([]float64(nil), orig...)
	Dsyr2(Upper, nn, 0.5, xs, 1, ys, 1, s, nn)
	for j := 0; j < nn; j++ {
		for i := 0; i <= j; i++ {
			wantV := orig[i+j*nn] + 0.5*(xs[i]*ys[j]+ys[i]*xs[j])
			if d := math.Abs(s[i+j*nn] - wantV); d > tol {
				t.Fatalf("Dsyr2 wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestDgemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := [][3]int{{3, 4, 5}, {1, 1, 1}, {17, 9, 23}, {64, 64, 64}, {130, 70, 150}, {200, 3, 7}}
	for _, tra := range []Transpose{NoTrans, Trans} {
		for _, trb := range []Transpose{NoTrans, Trans} {
			for _, dims := range cases {
				m, n, k := dims[0], dims[1], dims[2]
				rowA, colA := m, k
				if tra == Trans {
					rowA, colA = k, m
				}
				rowB, colB := k, n
				if trb == Trans {
					rowB, colB = n, k
				}
				lda, ldb, ldc := rowA+1, rowB+3, m+2
				a := randMat(rng, rowA, colA, lda)
				b := randMat(rng, rowB, colB, ldb)
				c := randMat(rng, m, n, ldc)
				want := append([]float64(nil), c...)
				naiveGemm(tra, trb, m, n, k, 0.7, a, lda, b, ldb, -1.3, want, ldc)
				Dgemm(tra, trb, m, n, k, 0.7, a, lda, b, ldb, -1.3, c, ldc)
				if d := maxDiff(c, want); d > 1e-10 {
					t.Fatalf("Dgemm %c%c m=%d n=%d k=%d: max diff %g", tra, trb, m, n, k, d)
				}
			}
		}
	}
}

func TestDgemmParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n, k := 150, 260, 90
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c1 := make([]float64, m*n)
	c2 := make([]float64, m*n)
	old := SetParallelism(1)
	Dgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c1, m)
	SetParallelism(4)
	Dgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m)
	SetParallelism(old)
	if d := maxDiff(c1, c2); d != 0 {
		t.Fatalf("parallel Dgemm differs from serial by %g", d)
	}
}

func TestDsyrkDsyr2kAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k := 11, 7
	for _, tr := range []Transpose{NoTrans, Trans} {
		rowA, colA := n, k
		if tr == Trans {
			rowA, colA = k, n
		}
		a := randMat(rng, rowA, colA, rowA)
		b := randMat(rng, rowA, colA, rowA)
		full := make([]float64, n*n)
		// full = A*Aᵀ (or Aᵀ*A).
		opp := Trans
		if tr == Trans {
			opp = NoTrans
		}
		naiveGemm(tr, opp, n, n, k, 1, a, rowA, a, rowA, 0, full, n)
		for _, ul := range []Uplo{Upper, Lower} {
			c := make([]float64, n*n)
			Dsyrk(ul, tr, n, k, 1, a, rowA, 0, c, n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					inTri := (ul == Lower && i >= j) || (ul == Upper && i <= j)
					if inTri {
						if d := math.Abs(c[i+j*n] - full[i+j*n]); d > 1e-10 {
							t.Fatalf("Dsyrk %c%c wrong at (%d,%d): %g", ul, tr, i, j, d)
						}
					} else if c[i+j*n] != 0 {
						t.Fatalf("Dsyrk %c%c touched (%d,%d)", ul, tr, i, j)
					}
				}
			}
		}
		// syr2k: C = A Bᵀ + B Aᵀ.
		full2 := make([]float64, n*n)
		naiveGemm(tr, opp, n, n, k, 1, a, rowA, b, rowA, 0, full2, n)
		naiveGemm(tr, opp, n, n, k, 1, b, rowA, a, rowA, 1, full2, n)
		c := make([]float64, n*n)
		Dsyr2k(Lower, tr, n, k, 1, a, rowA, b, rowA, 0, c, n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if d := math.Abs(c[i+j*n] - full2[i+j*n]); d > 1e-10 {
					t.Fatalf("Dsyr2k %c wrong at (%d,%d): %g", tr, i, j, d)
				}
			}
		}
	}
}

// expandTriangular builds the full dense matrix described by a triangular
// argument so Dtrsm can be checked against the dense product.
func expandTriangular(uplo Uplo, diag Diag, n int, a []float64, lda int) []float64 {
	f := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i == j:
				if diag == Unit {
					f[i+j*n] = 1
				} else {
					f[i+j*n] = a[i+j*lda]
				}
			case (uplo == Upper && i < j) || (uplo == Lower && i > j):
				f[i+j*n] = a[i+j*lda]
			}
		}
	}
	return f
}

// trmmRef overwrites the m×n matrix b with op(A)·B (Left) or B·op(A)
// (Right) for the triangular A, through the dense reference product: the
// known-product side of the Dtrsm round-trip tests.
func trmmRef(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	full := expandTriangular(uplo, diag, na, a, lda)
	out := make([]float64, len(b))
	copy(out, b)
	if side == Left {
		naiveGemm(trans, NoTrans, m, n, m, 1, full, na, b, ldb, 0, out, ldb)
	} else {
		naiveGemm(NoTrans, trans, m, n, n, 1, b, ldb, full, na, 0, out, ldb)
	}
	copy(b, out)
}

func TestDtrsmInvertsProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n := 7, 4
	for _, side := range []Side{Left, Right} {
		na := m
		if side == Right {
			na = n
		}
		for _, ul := range []Uplo{Upper, Lower} {
			for _, tr := range []Transpose{NoTrans, Trans} {
				for _, dg := range []Diag{NonUnit, Unit} {
					a := randMat(rng, na, na, na)
					// Make it well conditioned.
					for i := 0; i < na; i++ {
						a[i+i*na] = 3 + math.Abs(a[i+i*na])
					}
					b := randMat(rng, m, n, m)
					orig := append([]float64(nil), b...)
					trmmRef(side, ul, tr, dg, m, n, a, na, b, m)
					Dtrsm(side, ul, tr, dg, m, n, 1, a, na, b, m)
					if d := maxDiff(b, orig); d > 1e-9 {
						t.Fatalf("Dtrsm(op(A)·B) != B for %c%c%c%c: max diff %g", side, ul, tr, dg, d)
					}
				}
			}
		}
	}
}

func TestDsymmAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n := 6, 8
	for _, side := range []Side{Left, Right} {
		na := m
		if side == Right {
			na = n
		}
		full := randMat(rng, na, na, na)
		for j := 0; j < na; j++ {
			for i := 0; i < j; i++ {
				full[j+i*na] = full[i+j*na]
			}
		}
		b := randMat(rng, m, n, m)
		want := make([]float64, m*n)
		if side == Left {
			naiveGemm(NoTrans, NoTrans, m, n, m, 1.1, full, na, b, m, 0, want, m)
		} else {
			naiveGemm(NoTrans, NoTrans, m, n, n, 1.1, b, m, full, na, 0, want, m)
		}
		for _, ul := range []Uplo{Upper, Lower} {
			c := make([]float64, m*n)
			Dsymm(side, ul, m, n, 1.1, full, na, b, m, 0, c, m)
			if d := maxDiff(c, want); d > 1e-10 {
				t.Fatalf("Dsymm %c%c: max diff %g", side, ul, d)
			}
		}
	}
}

func TestGemmPropertyLinearity(t *testing.T) {
	// (alpha A)(B) == alpha (A B) for random small shapes.
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		alpha := r.NormFloat64()
		a := randMat(rng, m, k, m)
		b := randMat(rng, k, n, k)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		Dgemm(NoTrans, NoTrans, m, n, k, alpha, a, m, b, k, 0, c1, m)
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m)
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxDiff(c1, c2) < 1e-10*(1+math.Abs(alpha))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative n", func() { Ddot(-1, nil, 1, nil, 1) })
	mustPanic("zero inc", func() { Dscal(3, 1, make([]float64, 3), 0) })
	mustPanic("short slice", func() { Dgemv(NoTrans, 4, 4, 1, make([]float64, 4), 4, make([]float64, 4), 1, 0, make([]float64, 4), 1) })
	mustPanic("bad lda", func() { Dgemm(NoTrans, NoTrans, 4, 4, 4, 1, make([]float64, 16), 2, make([]float64, 16), 4, 0, make([]float64, 16), 4) })
}

func TestDswapDasum(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Dswap(3, x, 1, y, 1)
	if x[0] != 4 || y[2] != 3 {
		t.Fatalf("Dswap wrong: %v %v", x, y)
	}
	if got := Dasum(3, []float64{1, -2, 3}, 1); got != 6 {
		t.Fatalf("Dasum = %v", got)
	}
	// Negative increments traverse from the far end.
	z := []float64{1, 2, 3, 4}
	if got := Ddot(2, z, -2, z, 2); got != 3*1+1*3 {
		t.Fatalf("negative-stride Ddot = %v", got)
	}
}

func TestSetParallelismClamp(t *testing.T) {
	old := SetParallelism(-3)
	if Parallelism() != 1 {
		t.Fatalf("negative parallelism not clamped: %d", Parallelism())
	}
	SetParallelism(old)
}
