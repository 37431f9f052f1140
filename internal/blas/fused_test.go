package blas

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// forEachPath runs f on every kernel family this CPU executes: the probe's
// first, then each older one down to the portable twins — on an AVX-512 host
// avx512, avx2 and portable.
func forEachPath(f func(path string)) {
	for k := probedKernel; ; k-- {
		withKernel(k, func() { f(k.String()) })
		if k == famPortable {
			return
		}
	}
}

// withKernel runs f with the GEMM kernel pinned to k, which must not be newer
// than the probe's: the hook that reaches the AVX2 tile on an AVX-512 host.
func withKernel(k kernelFamily, f func()) {
	defer func(prev kernelFamily) { kernel = prev }(kernel)
	kernel = k
	f()
}

// portable runs f on the portable kernels.
func portable(f func()) { withKernel(famPortable, f) }

// maxMR and maxNR are the tallest panel and the widest tile of any kernel
// family, both the AVX-512 tile's.
var maxMR, maxNR = famAVX512.mr(), famAVX512.nr()

// tileKCs are the chain lengths the tile tests run: one step; two, whose
// skyline offset {1, 0} leaves a one-step chain that starts past k = 0; 7
// and 47, odd lengths below a diamond's and a panel's; a g = 12 and a g = 16
// diamond's; 48, the stage-1 tile's (Q₁ and the TS panels); a 63-row
// diamond's Vᵀ product; and either side of the KC split.
var tileKCs = []int{1, 2, 7, 12, 16, 47, 48, 63, DefaultKC, DefaultKC + 1}

// TestGemmAsmBitwisePortable compares every assembly GEMM tile this CPU runs
// with the portable twin at the micro-kernel level, on every ragged height
// h ∈ 1…16 and width nr ∈ 1…8 (each alone and behind a full 16×8 tile),
// chains of tileKCs steps, whole and skyline k ranges, and operands
// sprinkled with ±0, subnormals, ±Inf and NaN: they must agree bit for bit
// (two NaNs count as equal). Dgemm over the same operands must then give the
// same bits on every kernel family.
func TestGemmAsmBitwisePortable(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(61))
	for _, kc := range tileKCs {
		for h := 1; h <= maxMR; h++ {
			for nr := 1; nr <= maxNR; nr++ {
				for _, sk := range [][2]int{{0, 0}, {1, 0}, {3, 2}} {
					if sk[0]+sk[1] >= kc {
						continue
					}
					for _, kind := range fillKinds {
						gemmTileCase(t, rng, h, nr, kc, sk[0], kc-sk[1], kind)
						gemmTileCase(t, rng, maxMR+h, maxNR+nr, kc, sk[0], kc-sk[1], kind)
					}
				}
			}
		}
	}
}

// gemmTileCase runs C += A·B for an m×kc A and a kc×n B through gemmMacro on
// the k range [lo, hi) of every row panel, in the portable layout and in each
// assembly layout the CPU runs.
func gemmTileCase(t *testing.T, rng *rand.Rand, m, n, kc, lo, hi int, kind fillKind) {
	t.Helper()
	a := levelData(rng, m*kc, kind)
	b := levelData(rng, kc*n, kind)
	c := levelData(rng, m*n, kind)
	macro := func(kern kernelFamily) []float64 {
		mr := kern.mr()
		ap := make([]float64, roundUp(m, mr)*kc)
		packA(ap, NoTrans, a, m, 0, 0, m, kc, kern)
		bp := make([]float64, roundUp(n, kern.nr())*kc)
		packB(bp, NoTrans, b, kc, 0, 0, kc, n, 1, kern)
		sky := make([]float64, 2*((m+mr-1)/mr))
		for i := 0; i < len(sky); i += 2 {
			sky[i], sky[i+1] = float64(lo+1), float64(hi+1)
		}
		out := slices.Clone(c)
		gemmMacro(ap, bp, kc, m, n, kc, kern, out, m, sky)
		return out
	}
	twin := macro(famPortable)
	for k := famPortable + 1; k <= probedKernel; k++ {
		sameFloats(t, "gemmMacro: "+k.String()+" tile", macro(k), twin)
	}
	var want []float64
	forEachPath(func(path string) {
		got := slices.Clone(c)
		Dgemm(NoTrans, NoTrans, m, n, kc, 1, a, m, b, kc, 1, got, m)
		if want == nil {
			want = got
			return
		}
		sameFloats(t, "Dgemm, "+path, got, want)
	})
}

// TestFusedRulePin pins the fused rule on operands where it shows. With
// p = 1 + 2⁻³⁰ and q = −(1 + 2⁻²⁹), fma(p, p, q) is 2⁻⁶⁰ while p·p rounds to
// 1 + 2⁻²⁹, so p·p + q is 0. Each routine is given p and q where its rule
// places one fused step and must return 2⁻⁶⁰ there — on the assembly and on
// the portable twins, so a twin that lost its math.FMA, or a kernel that lost
// its VFMADD, fails here.
func TestFusedRulePin(t *testing.T) {
	p, q := 1+0x1p-30, -(1 + 0x1p-29)
	const want = 0x1p-60
	if float64(p*p)+q != 0 || math.FMA(p, p, q) != want {
		t.Fatal("the operands do not separate fused from unfused arithmetic")
	}
	fill := func(n int, v float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	check := func(t *testing.T, what string, got ...float64) {
		t.Helper()
		for i, g := range got {
			if g != want {
				t.Errorf("%s: value %d = %g, want fma(p, p, q) = 2⁻⁶⁰ (unfused: 0)", what, i, g)
			}
		}
	}
	pin := func(t *testing.T) {
		// Ddot: the rows 0 and 4 of lane 0 through the quads, and the
		// same terms as tail rows.
		x, y := make([]float64, 8), make([]float64, 8)
		x[0], y[0], x[4], y[4] = 1, q, p, p
		check(t, "Ddot (lanes)", Ddot(8, x, 1, y, 1))
		check(t, "Ddot (tail)", Ddot(2, []float64{1, p}, 1, []float64{q, p}, 1))

		y = fill(5, q)
		Daxpy(5, p, fill(5, p), 1, y, 1)
		check(t, "Daxpy", y...)

		// Dgemv(NoTrans): y = fma(α·x[0], a, y), then zero terms.
		a := fill(25, p)
		y = fill(5, q)
		Dgemv(NoTrans, 5, 5, 1, a, 5, []float64{p, 0, 0, 0, 0}, 1, 1, y, 1)
		check(t, "Dgemv(NoTrans)", y...)

		// Dgemv(Trans): y = fma(α, A(:, j)·x, y), and a fused tail row.
		a = make([]float64, 25)
		for j := 0; j < 5; j++ {
			a[j*5] = p
		}
		y = fill(5, q)
		Dgemv(Trans, 5, 5, p, a, 5, []float64{1, 0, 0, 0, 0}, 1, 1, y, 1)
		check(t, "Dgemv(Trans)", y...)
		for j := 0; j < 5; j++ {
			a[j*5], a[4+j*5] = q, p
		}
		y = make([]float64, 5)
		Dgemv(Trans, 5, 5, 1, a, 5, []float64{1, 0, 0, 0, p}, 1, 1, y, 1)
		check(t, "Dgemv(Trans) tail", y...)

		a = fill(25, q)
		Dger(5, 5, 1, fill(5, p), 1, fill(5, p), 1, a, 5)
		check(t, "Dger", a...)

		// Dsymv(Lower): y[0] = fma(α·x[0], a[0,0], y[0]) in the last-group
		// code (n = 1) and the 4×4 block (n = 5); then the mirrored row
		// y[0] = fma(α, a[1,0]·x[1], y[0]).
		for _, n := range []int{1, 5} {
			a = make([]float64, n*n)
			a[0] = p
			x = make([]float64, n)
			x[0] = p
			y = make([]float64, n)
			y[0] = q
			Dsymv(Lower, n, 1, a, n, x, 1, 1, y, 1)
			check(t, "Dsymv(Lower) column", y[0])
		}
		a = make([]float64, 25)
		a[1] = p
		y = make([]float64, 5)
		y[0] = q
		Dsymv(Lower, 5, p, a, 5, []float64{0, 1, 0, 0, 0}, 1, 1, y, 1)
		check(t, "Dsymv(Lower) row", y[0])

		// Dsyr2(Lower): a[i,0] = fma(y[i], α·x[0], fma(x[i], α·y[0], a[i,0]))
		// with y[i] = 0, in the 4×4 block, the row quad below it and
		// the tail row.
		const n = 9
		a = fill(n*n, q)
		x, y = fill(n, p), make([]float64, n)
		x[0], y[0] = 1, p
		Dsyr2(Lower, n, 1, x, 1, y, 1, a, n)
		check(t, "Dsyr2(Lower)", a[1:n]...)

		// Dgemm: each element's chain is fma(p, p, fma(1, q, 0)), on a
		// full 12×4 or 16×8 tile and ragged ones.
		const m, k, nc = 17, 2, 9
		a, b := make([]float64, m*k), make([]float64, k*nc)
		for i := 0; i < m; i++ {
			a[i], a[i+m] = 1, p
		}
		for j := 0; j < nc; j++ {
			b[j*k], b[1+j*k] = q, p
		}
		c := make([]float64, m*nc)
		Dgemm(NoTrans, NoTrans, m, nc, k, 1, a, m, b, k, 1, c, m)
		check(t, "Dgemm", c...)
	}
	// Each assembly family the CPU runs under "assembly", then the twins.
	if probedKernel != famPortable {
		t.Run("assembly", func(t *testing.T) {
			for k := probedKernel; k != famPortable; k-- {
				withKernel(k, func() { t.Run(k.String(), pin) })
			}
		})
	}
	t.Run("portable", func(t *testing.T) { portable(func() { pin(t) }) })
}
