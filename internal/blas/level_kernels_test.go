package blas

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// poison is the guard value: a quiet NaN with a recognizable payload. A kernel
// that reads one spoils its result; one that overwrites one is caught by
// comparing bits.
var poison = math.Float64frombits(0x7ff8_dead_beef_cafe)

const guardBand = 24

// poisoned returns a random r×c column-major matrix with leading dimension ld
// embedded in a buffer whose every other value is poison: a band before, a
// band after, and rows r..ld-1 of every column. mat is capped at its last
// entry, so only code that bypasses Go's bounds checks can reach the bands.
func poisoned(rng *rand.Rand, r, c, ld int) (buf, mat []float64) {
	n := 0
	if r > 0 && c > 0 {
		n = (c-1)*ld + r
	}
	buf = make([]float64, guardBand+n+guardBand)
	for i := range buf {
		buf[i] = poison
	}
	mat = buf[guardBand : guardBand+n : guardBand+n]
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			mat[i+j*ld] = rng.NormFloat64()
		}
	}
	return buf, mat
}

// checkGuards fails unless every value of buf outside the r×c matrix is still
// bitwise what it is in orig. With r = 0 the whole buffer must be unchanged
// (an input operand).
func checkGuards(t *testing.T, what string, buf, orig []float64, r, c, ld int) {
	t.Helper()
	for i := range buf {
		if k := i - guardBand; k >= 0 && ld > 0 && k%ld < r && k/ld < c {
			continue
		}
		if math.Float64bits(buf[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: value at offset %d (matrix starts at %d, %d×%d ld %d) changed from %x to %x",
				what, i, guardBand, r, c, ld, math.Float64bits(orig[i]), math.Float64bits(buf[i]))
		}
	}
}

// sameFloats fails unless got and want agree bit for bit, two NaNs counting
// as equal (which of two NaN operands an instruction propagates is the one
// thing the assembly and the compiler's code may disagree on).
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: value %d = %x (%g), portable twin gives %x (%g)", what, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// fillKind selects what levelData sprinkles over its normal deviates.
type fillKind int

const (
	fillRandom    fillKind = iota // normal deviates only
	fillSigned                    // plus ±0 and subnormals: every result still finite
	fillNonFinite                 // plus ±Inf and NaN as well
)

var fillKinds = []fillKind{fillRandom, fillSigned, fillNonFinite}

// levelData returns n values of the given kind.
func levelData(rng *rand.Rand, n int, kind fillKind) []float64 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 2e-308}
	if kind == fillNonFinite {
		special = append(special, math.Inf(1), math.Inf(-1), math.NaN())
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if kind != fillRandom && rng.Intn(6) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

func TestLevel1AsmBitwisePortable(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(51))
	for n := 0; n <= 130; n++ {
		for off := 0; off <= 3; off++ {
			for _, kind := range fillKinds {
				x := levelData(rng, off+n, kind)[off:]
				y := levelData(rng, off+n+1, kind)[off+1:]
				alpha := levelData(rng, 1, kind)[0]
				sameFloats(t, "dot", []float64{dot(n, x, y)}, []float64{dotGo(n, x, y)})
				got, want := slices.Clone(y), slices.Clone(y)
				axpy(n, alpha, x, got)
				axpyGo(n, alpha, x, want)
				sameFloats(t, "axpy", got, want)
			}
		}
	}
}

// level2Case runs the five Level-2 kernels and their twins on one m×n (and
// one order-m) shape.
func level2Case(t *testing.T, rng *rand.Rand, m, n, lda int, kind fillKind) {
	t.Helper()
	a := levelData(rng, lda*max(m, n)+1, kind)
	xm, xn := levelData(rng, m, kind), levelData(rng, n, kind)
	ym, yn := levelData(rng, m, kind), levelData(rng, n, kind)
	alpha := rng.NormFloat64()
	run := func(what string, out []float64, asm, twin func(out []float64)) {
		t.Helper()
		got, want := slices.Clone(out), slices.Clone(out)
		asm(got)
		twin(want)
		sameFloats(t, what, got, want)
	}
	run("gemvN", ym,
		func(y []float64) { gemvN(m, n, alpha, a, lda, xn, y) },
		func(y []float64) {
			if m > 0 {
				gemvNGo(m, n, alpha, a, lda, xn, y)
			}
		})
	run("gemvT", yn,
		func(y []float64) { gemvT(m, n, alpha, a, lda, xm, y) },
		func(y []float64) {
			if m > 0 {
				gemvTGo(m, n, alpha, a, lda, xm, y)
			}
		})
	run("ger", a,
		func(a []float64) { ger(m, n, alpha, xm, yn, a, lda) },
		func(a []float64) {
			if m > 0 {
				gerGo(m, n, alpha, xm, yn, a, lda)
			}
		})
	run("symvL", ym,
		func(y []float64) { symvL(m, alpha, a, lda, xm, y) },
		func(y []float64) { symvLGo(m, alpha, a, lda, xm, y) })
	run("syr2L", a,
		func(a []float64) { syr2L(m, alpha, xm, ym, a, lda) },
		func(a []float64) { syr2LGo(m, alpha, xm, ym, a, lda) })
}

func TestLevel2AsmBitwisePortable(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(52))
	dims := []int{0, 1, 3, 4, 5, 47, 48, 49, 95}
	for _, m := range dims {
		for _, n := range dims {
			for _, lda := range []int{m, m + 1, 2*m - 1} {
				for _, kind := range fillKinds {
					level2Case(t, rng, m, n, max(lda, 1), kind)
				}
			}
		}
	}

	// The addressing the bulge chase uses: blocks cut out of lower band
	// storage with 2b−1 subdiagonals (element (i, j) at (i−j) + j·lda,
	// lda = 2b), which are ordinary column-major blocks with leading
	// dimension lda−1. The whole band must agree afterwards.
	for _, b := range []int{3, 5, 48} {
		order, lda := 4*b+3, 2*b
		for _, kind := range fillKinds {
			got := levelData(rng, order*lda, kind)
			want := slices.Clone(got)
			u, p := levelData(rng, b, kind), levelData(rng, b, kind)
			for r0 := b; r0+b <= order; r0 += b - 1 {
				for _, l := range []int{b, b - 1, 1} {
					// Symmetric block of order l at (r0, r0), then the block of
					// l rows from r0 and the l' columns that end at r0.
					for _, band := range [][]float64{got, want} {
						sym, pp := band[r0*lda:], slices.Clone(p)
						lc := b + 1 - l
						off := band[lc+(r0-lc)*lda:]
						if &band[0] == &got[0] {
							symvL(l, 0.5, sym, lda-1, u, pp)
							syr2L(l, -1, u, pp, sym, lda-1)
							gemvN(l, lc, 1, off, lda-1, u, pp)
							ger(l, lc, -0.75, pp, u, off, lda-1)
							gemvT(l, lc, 1, off, lda-1, u, pp)
							ger(l, lc, -1.25, u, pp, off, lda-1)
						} else {
							symvLGo(l, 0.5, sym, lda-1, u, pp)
							syr2LGo(l, -1, u, pp, sym, lda-1)
							gemvNGo(l, lc, 1, off, lda-1, u, pp)
							gerGo(l, lc, -0.75, pp, u, off, lda-1)
							gemvTGo(l, lc, 1, off, lda-1, u, pp)
							gerGo(l, lc, -1.25, u, pp, off, lda-1)
						}
					}
					sameFloats(t, "band blocks", got, want)
				}
			}
		}
	}
}

// TestLevelCanaries is the memory-safety gate of the Level-1/2 assembly:
// every operand sits in a poisoned buffer — a guard band before and after it
// and rows m..lda−1 between its columns — which must come back untouched while
// the result still equals the twin's, and an operand one element short must
// panic in the Go wrapper with nothing written.
func TestLevelCanaries(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(53))
	for _, m := range []int{1, 3, 4, 5, 8, 47, 48, 49} {
		for _, n := range []int{1, 3, 4, 5, 48, 49} {
			lda := m + 3
			abuf, a := poisoned(rng, m, n, lda)
			sbuf, s := poisoned(rng, m, m, lda) // the symmetric operand
			xmbuf, xm := poisoned(rng, m, 1, m)
			xnbuf, xn := poisoned(rng, n, 1, n)
			ymbuf, ym := poisoned(rng, m, 1, m)
			ynbuf, yn := poisoned(rng, n, 1, n)
			bufs := [][]float64{abuf, sbuf, xmbuf, xnbuf, ymbuf, ynbuf}
			orig := make([][]float64, len(bufs))
			for i, b := range bufs {
				orig[i] = slices.Clone(b)
			}
			// check compares one written operand (buffer w, an r×c matrix with
			// leading dimension ld) with the twin's result on clean copies, and
			// every buffer's guards; then restores the operands.
			check := func(what string, w int, out, want []float64, r, c, ld int) {
				t.Helper()
				for j := 0; j < c; j++ {
					sameFloats(t, what, out[j*ld:j*ld+r], want[j*ld:j*ld+r])
				}
				for i, b := range bufs {
					if i == w {
						checkGuards(t, what, b, orig[i], r, c, ld)
					} else {
						checkGuards(t, what, b, orig[i], 0, 0, 1)
					}
					copy(b, orig[i])
				}
			}
			alpha := rng.NormFloat64()
			clean := func(v []float64, ld, r, c int) []float64 { // poison-free copy
				out := make([]float64, len(v))
				for j := 0; j < c; j++ {
					copy(out[j*ld:j*ld+r], v[j*ld:j*ld+r])
				}
				return out
			}

			want := slices.Clone(ym)
			axpyGo(m, alpha, xm, want)
			axpy(m, alpha, xm, ym)
			check("axpy", 4, ym, want, m, 1, m)

			if g, w := dot(m, xm, ym), dotGo(m, xm, ym); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("dot: %g, twin %g", g, w)
			}
			check("dot", -1, nil, nil, 0, 0, 1)

			want = slices.Clone(ym)
			gemvNGo(m, n, alpha, clean(a, lda, m, n), lda, xn, want)
			gemvN(m, n, alpha, a, lda, xn, ym)
			check("gemvN", 4, ym, want, m, 1, m)

			want = slices.Clone(yn)
			gemvTGo(m, n, alpha, clean(a, lda, m, n), lda, xm, want)
			gemvT(m, n, alpha, a, lda, xm, yn)
			check("gemvT", 5, yn, want, n, 1, n)

			want = clean(a, lda, m, n)
			gerGo(m, n, alpha, xm, yn, want, lda)
			ger(m, n, alpha, xm, yn, a, lda)
			check("ger", 0, a, want, m, n, lda)

			// The symmetric kernels must not touch the strict upper triangle
			// either: poison it too (the guards then cover it as "unchanged").
			for j := 0; j < m; j++ {
				for i := 0; i < j; i++ {
					s[i+j*lda] = poison
				}
			}
			copy(orig[1], sbuf)
			lower := func() []float64 {
				out := make([]float64, len(s))
				for j := 0; j < m; j++ {
					copy(out[j*lda+j:j*lda+m], s[j*lda+j:j*lda+m])
				}
				return out
			}
			want = slices.Clone(ym)
			symvLGo(m, alpha, lower(), lda, xm, want)
			symvL(m, alpha, s, lda, xm, ym)
			check("symvL", 4, ym, want, m, 1, m)

			wantS := lower()
			syr2LGo(m, alpha, xm, ym, wantS, lda)
			syr2L(m, alpha, xm, ym, s, lda)
			for j := 0; j < m; j++ {
				sameFloats(t, "syr2L", s[j*lda+j:j*lda+m], wantS[j*lda+j:j*lda+m])
				for i := 0; i < j; i++ {
					if math.Float64bits(s[i+j*lda]) != math.Float64bits(poison) {
						t.Fatalf("syr2L wrote above the diagonal at (%d,%d)", i, j)
					}
					s[i+j*lda] = orig[1][guardBand+i+j*lda] // so the guard check sees it as unchanged
				}
			}
			check("syr2L", 1, s, s, m, m, lda)
		}
	}

	// Short operands: the wrapper must panic before the kernel runs.
	const m, n, lda = 9, 6, 11
	full := func(k int) []float64 { return randVec(rng, k) }
	for _, tc := range []struct {
		name string
		call func(a, xm, xn, ym, yn []float64)
		// which operand to shorten: 0 a, 1 xm, 2 xn, 3 ym, 4 yn
		short int
	}{
		{"dot x", func(a, xm, xn, ym, yn []float64) { dot(m, xm, ym) }, 1},
		{"dot y", func(a, xm, xn, ym, yn []float64) { dot(m, xm, ym) }, 3},
		{"axpy x", func(a, xm, xn, ym, yn []float64) { axpy(m, 2, xm, ym) }, 1},
		{"axpy y", func(a, xm, xn, ym, yn []float64) { axpy(m, 2, xm, ym) }, 3},
		{"gemvN a", func(a, xm, xn, ym, yn []float64) { gemvN(m, n, 2, a, lda, xn, ym) }, 0},
		{"gemvN x", func(a, xm, xn, ym, yn []float64) { gemvN(m, n, 2, a, lda, xn, ym) }, 2},
		{"gemvN y", func(a, xm, xn, ym, yn []float64) { gemvN(m, n, 2, a, lda, xn, ym) }, 3},
		{"gemvT a", func(a, xm, xn, ym, yn []float64) { gemvT(m, n, 2, a, lda, xm, yn) }, 0},
		{"gemvT x", func(a, xm, xn, ym, yn []float64) { gemvT(m, n, 2, a, lda, xm, yn) }, 1},
		{"gemvT y", func(a, xm, xn, ym, yn []float64) { gemvT(m, n, 2, a, lda, xm, yn) }, 4},
		{"ger a", func(a, xm, xn, ym, yn []float64) { ger(m, n, 2, xm, yn, a, lda) }, 0},
		{"ger x", func(a, xm, xn, ym, yn []float64) { ger(m, n, 2, xm, yn, a, lda) }, 1},
		{"ger y", func(a, xm, xn, ym, yn []float64) { ger(m, n, 2, xm, yn, a, lda) }, 4},
		{"symvL a", func(a, xm, xn, ym, yn []float64) { symvL(n, 2, a, lda, xn, yn) }, 0},
		{"symvL x", func(a, xm, xn, ym, yn []float64) { symvL(n, 2, a, lda, xn, yn) }, 2},
		{"symvL y", func(a, xm, xn, ym, yn []float64) { symvL(n, 2, a, lda, xn, yn) }, 4},
		{"syr2L a", func(a, xm, xn, ym, yn []float64) { syr2L(n, 2, xn, yn, a, lda) }, 0},
		{"syr2L x", func(a, xm, xn, ym, yn []float64) { syr2L(n, 2, xn, yn, a, lda) }, 2},
		{"syr2L y", func(a, xm, xn, ym, yn []float64) { syr2L(n, 2, xn, yn, a, lda) }, 4},
	} {
		ops := [][]float64{full((n-1)*lda + m), full(m), full(n), full(m), full(n)}
		if tc.name[:4] == "symv" || tc.name[:4] == "syr2" {
			ops[0] = full((n-1)*lda + n)
		}
		ops[tc.short] = ops[tc.short][:len(ops[tc.short])-1]
		before := make([][]float64, len(ops))
		for i, o := range ops {
			before[i] = slices.Clone(o)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			tc.call(ops[0], ops[1], ops[2], ops[3], ops[4])
			return
		}()
		if !panicked {
			t.Fatalf("%s one element short: no panic", tc.name)
		}
		// The portable twins panic too, but from inside their loops; only the
		// assembly's wrapper promises that nothing was written.
		for i, o := range ops {
			if kernel != famPortable && !slices.Equal(o, before[i]) {
				t.Fatalf("%s one element short: operand %d modified before the panic", tc.name, i)
			}
		}
	}
	// A leading dimension below the row count would make the columns overlap.
	func() {
		defer func() {
			if kernel != famPortable && recover() == nil {
				t.Fatal("lda < m: no panic")
			}
		}()
		gemvN(m, n, 1, full(m*n), m-1, full(n), full(m))
	}()
}

// TestLevel2AgainstNaive checks the public Level-2 routines — kernel routes
// and Dgemv's staged strided-x route — against triple loops within c·n·ε.
func TestLevel2AgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const eps = 0x1p-52
	strided := func(v []float64, inc int) []float64 { // v laid out with the given stride
		out := make([]float64, (len(v)-1)*inc+1)
		for i, x := range v {
			out[i*inc] = x
		}
		return out
	}
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {48, 47}, {95, 4}, {7, 130}, {130, 131}} {
		m, n := dims[0], dims[1]
		lda := m + 2
		a := randMat(rng, m, n, lda)
		bound := 8 * float64(max(m, n)) * eps * float64(max(m, n))
		for _, c := range []struct {
			tr   Transpose
			incX int
			beta float64
		}{{NoTrans, 1, 1}, {NoTrans, 1, 0}, {NoTrans, 2, 1}, {NoTrans, 3, 0}, {Trans, 1, 1}, {Trans, 1, 0}} {
			lenX, lenY := n, m
			if c.tr == Trans {
				lenX, lenY = m, n
			}
			x, y := randVec(rng, lenX), randVec(rng, lenY)
			want := make([]float64, lenY)
			for i := range want {
				var sum float64
				for l := 0; l < lenX; l++ {
					if c.tr == NoTrans {
						sum += a[i+l*lda] * x[l]
					} else {
						sum += a[l+i*lda] * x[l]
					}
				}
				want[i] = 1.5*sum + c.beta*y[i]
			}
			Dgemv(c.tr, m, n, 1.5, a, lda, strided(x, c.incX), c.incX, c.beta, y, 1)
			if d := maxDiff(y, want); d > bound {
				t.Fatalf("Dgemv trans=%c %d×%d incX=%d beta=%g: max diff %g > %g", c.tr, m, n, c.incX, c.beta, d, bound)
			}
		}
		x, y := randVec(rng, m), randVec(rng, n)
		got, want := slices.Clone(a), slices.Clone(a)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				want[i+j*lda] += 1.25 * x[i] * y[j]
			}
		}
		Dger(m, n, 1.25, x, 1, y, 1, got, lda)
		if d := maxDiff(got, want); d > bound {
			t.Fatalf("Dger %d×%d: max diff %g", m, n, d)
		}

		// The symmetric pair on the order-m leading block.
		s := randMat(rng, m, m, lda)
		for j := 0; j < m; j++ {
			for i := 0; i < j; i++ {
				s[i+j*lda] = s[j+i*lda]
			}
		}
		x, y = randVec(rng, m), randVec(rng, m)
		for _, beta := range []float64{0, 1} {
			want := make([]float64, m)
			for i := range want {
				var sum float64
				for l := 0; l < m; l++ {
					sum += s[i+l*lda] * x[l]
				}
				want[i] = -0.75*sum + beta*y[i]
			}
			got := slices.Clone(y)
			Dsymv(Lower, m, -0.75, s, lda, x, 1, beta, got, 1)
			if d := maxDiff(got, want); d > bound {
				t.Fatalf("Dsymv n=%d beta=%g: max diff %g", m, beta, d)
			}
		}
		got = slices.Clone(s)
		Dsyr2(Lower, m, 0.5, x, 1, y, 1, got, lda)
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				w := s[i+j*lda]
				if i >= j {
					w += 0.5 * (x[i]*y[j] + y[i]*x[j])
				}
				if d := math.Abs(got[i+j*lda] - w); d > bound {
					t.Fatalf("Dsyr2 n=%d: element (%d,%d) off by %g", m, i, j, d)
				}
			}
		}
	}
}
