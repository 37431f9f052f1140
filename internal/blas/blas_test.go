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
	// Negative increments traverse from the far end.
	z := []float64{1, 2, 3, 4}
	if got := Ddot(2, z, -2, z, 2); got != 3*1+1*3 {
		t.Fatalf("negative-stride Ddot = %v", got)
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

func TestDger(t *testing.T) {
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

func TestDsyr2kAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k := 11, 7
	for _, tr := range []Transpose{NoTrans, Trans} {
		rowA, colA := n, k
		if tr == Trans {
			rowA, colA = k, n
		}
		a := randMat(rng, rowA, colA, rowA)
		b := randMat(rng, rowA, colA, rowA)
		opp := Trans
		if tr == Trans {
			opp = NoTrans
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
	mustPanic("short slice", func() {
		Dgemv(NoTrans, 4, 4, 1, make([]float64, 4), 4, make([]float64, 4), 1, 0, make([]float64, 4), 1)
	})
	mustPanic("bad lda", func() {
		Dgemm(NoTrans, NoTrans, 4, 4, 4, 1, make([]float64, 16), 2, make([]float64, 16), 4, 0, make([]float64, 16), 4)
	})
}
