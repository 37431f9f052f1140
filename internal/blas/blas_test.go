package blas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	if got := Ddot(0, nil, 1, nil, 1); got != 0 {
		t.Fatalf("empty Ddot = %v, want 0", got)
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
		for _, c := range [][3]int{{5, 3, 0}, {1, 7, 1}, {8, 8, 0}, {13, 2, 1}} {
			m, n, beta := c[0], c[1], float64(c[2])
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
				want[i] = 1.5*sum + beta*want[i]
			}
			Dgemv(tr, m, n, 1.5, a, lda, x, 1, beta, y, 1)
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
	// Build a full symmetric matrix, then run Dsymv on its lower triangle.
	full := randMat(rng, n, n, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			full[j+i*lda] = full[i+j*lda]
		}
	}
	x := randVec(rng, n)
	want := make([]float64, n)
	Dgemv(NoTrans, n, n, 2.0, full, lda, x, 1, 0, want, 1)
	y := make([]float64, n)
	Dsymv(Lower, n, 2.0, full, lda, x, 1, 0, y, 1)
	if d := maxDiff(y, want); d > tol {
		t.Fatalf("Dsymv: max diff %g", d)
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
	a := randMat(rng, n, k, n)
	b := randMat(rng, n, k, n)
	// syr2k: C = A Bᵀ + B Aᵀ.
	full2 := make([]float64, n*n)
	naiveGemm(NoTrans, Trans, n, n, k, 1, a, n, b, n, 0, full2, n)
	naiveGemm(NoTrans, Trans, n, n, k, 1, b, n, a, n, 1, full2, n)
	c := make([]float64, n*n)
	Dsyr2k(Lower, NoTrans, n, k, 1, a, n, b, n, 1, c, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(c[i+j*n] - full2[i+j*n]); d > 1e-10 {
				t.Fatalf("Dsyr2k wrong at (%d,%d): %g", i, j, d)
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

// TestDtrmvMatchesRowLoop: Dtrmv's column order gives the bits of the row
// loop it replaced, each x[i] the sum of its row in ascending column order.
func TestDtrmvMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 5, 31, 48, 97} {
		for _, kind := range fillKinds {
			lda := n + 1
			a, x := levelData(rng, lda*n, kind), levelData(rng, n, kind)
			want := slices.Clone(x)
			for i := 0; i < n; i++ {
				sum := a[i+i*lda] * want[i]
				for j := i + 1; j < n; j++ {
					sum += a[i+j*lda] * want[j]
				}
				want[i] = sum
			}
			Dtrmv(Upper, NoTrans, NonUnit, n, a, max(lda, 1), x, 1)
			sameFloats(t, fmt.Sprintf("Dtrmv n=%d", n), x, want)
		}
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

// TestUnsupportedShapesPanic pins the package's contract that a shape no
// caller makes panics with badParam rather than computing: one row per shape
// whose code was deleted. Every operand is long enough for the supported
// shapes, so only the shape itself can be refused.
func TestUnsupportedShapesPanic(t *testing.T) {
	const n = 4
	v := func() []float64 { return make([]float64, 4*n) }
	m := func() []float64 { return make([]float64, n*n) }
	for _, tc := range []struct {
		name, routine string
		call          func()
	}{
		{"ddot_strided_x", "ddot", func() { Ddot(n, v(), 2, v(), 1) }},
		{"ddot_strided_y", "ddot", func() { Ddot(n, v(), 1, v(), 3) }},
		{"ddot_negative", "ddot", func() { Ddot(n, v(), -1, v(), 1) }},
		{"daxpy_strided_x", "daxpy", func() { Daxpy(n, 1, v(), 2, v(), 1) }},
		{"daxpy_negative_y", "daxpy", func() { Daxpy(n, 1, v(), 1, v(), -2) }},
		{"dscal_strided", "dscal", func() { Dscal(n, 2, v(), 2) }},
		{"dscal_negative", "dscal", func() { Dscal(n, 2, v(), -1) }},
		{"dnrm2_strided", "dnrm2", func() { Dnrm2(n, v(), 3) }},
		{"dgemv_notrans_strided_y", "dgemv", func() { Dgemv(NoTrans, n, n, 1, m(), n, v(), 1, 0, v(), 2) }},
		{"dgemv_notrans_negative_x", "dgemv", func() { Dgemv(NoTrans, n, n, 1, m(), n, v(), -1, 0, v(), 1) }},
		{"dgemv_trans_strided_x", "dgemv", func() { Dgemv(Trans, n, n, 1, m(), n, v(), 2, 0, v(), 1) }},
		{"dgemv_trans_strided_y", "dgemv", func() { Dgemv(Trans, n, n, 1, m(), n, v(), 1, 0, v(), 2) }},
		{"dgemv_beta", "dgemv", func() { Dgemv(NoTrans, n, n, 1, m(), n, v(), 1, 0.5, v(), 1) }},
		{"dsymv_upper", "dsymv", func() { Dsymv(Upper, n, 1, m(), n, v(), 1, 0, v(), 1) }},
		{"dsymv_strided_x", "dsymv", func() { Dsymv(Lower, n, 1, m(), n, v(), 2, 0, v(), 1) }},
		{"dsymv_strided_y", "dsymv", func() { Dsymv(Lower, n, 1, m(), n, v(), 1, 0, v(), 2) }},
		{"dsymv_beta", "dsymv", func() { Dsymv(Lower, n, 1, m(), n, v(), 1, 2, v(), 1) }},
		{"dsymvrows_middle", "dsymv", func() { DsymvRows(Lower, 3*n, n, 2*n, 1, make([]float64, 9*n*n), 3*n, v(), 1, 0, v(), 1) }},
		{"dsymvrows_split", "dsymv", func() { DsymvRows(Lower, n, 0, 2, 1, m(), n, v(), 1, 0, v(), 1) }},
		{"dsyr2kcols_split", "dsyr2k", func() { Dsyr2kCols(Lower, NoTrans, n, n, 0, 2, 1, m(), n, m(), n, 1, m(), n) }},
		{"dger_strided_x", "dger", func() { Dger(n, n, 1, v(), 2, v(), 1, m(), n) }},
		{"dger_strided_y", "dger", func() { Dger(n, n, 1, v(), 1, v(), 2, m(), n) }},
		{"dtrmv_upper_trans", "dtrmv", func() { Dtrmv(Upper, Trans, NonUnit, n, m(), n, v(), 1) }},
		{"dtrmv_lower_notrans", "dtrmv", func() { Dtrmv(Lower, NoTrans, NonUnit, n, m(), n, v(), 1) }},
		{"dtrmv_lower_trans", "dtrmv", func() { Dtrmv(Lower, Trans, NonUnit, n, m(), n, v(), 1) }},
		{"dtrmv_unit_diag", "dtrmv", func() { Dtrmv(Upper, NoTrans, Diag('U'), n, m(), n, v(), 1) }},
		{"dsyr2k_upper", "dsyr2k", func() { Dsyr2k(Upper, NoTrans, n, n, 1, m(), n, m(), n, 1, m(), n) }},
		{"dsyr2k_trans", "dsyr2k", func() { Dsyr2k(Lower, Trans, n, n, 1, m(), n, m(), n, 1, m(), n) }},
		{"dsyr2k_beta_zero", "dsyr2k", func() { Dsyr2k(Lower, NoTrans, n, n, 1, m(), n, m(), n, 0, m(), n) }},
		{"dsyr2k_beta", "dsyr2k", func() { Dsyr2k(Lower, NoTrans, n, n, 1, m(), n, m(), n, 2, m(), n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if want := "blas: " + tc.routine + ": bad "; !strings.HasPrefix(msg, want) {
					t.Fatalf("panic %q, want one starting %q", msg, want)
				}
			}()
			tc.call()
		})
	}
}
