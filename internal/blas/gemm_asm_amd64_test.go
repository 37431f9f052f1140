//go:build amd64

package blas

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The assembly kernel is the one piece of this module the Go runtime does not
// bounds-check. These tests are its memory-safety gate: the kernel runs on
// operands embedded in poisoned buffers, and the Go-side assertions in front
// of it are shown to fire. They run in the default build — under -race in
// scripts/check.sh — and log whether the assembly was actually exercised.

// sameBits fails unless the r×c matrices got and want (both ld) agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64, r, c, ld int) {
	t.Helper()
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			if g, w := got[i+j*ld], want[i+j*ld]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: element (%d,%d) = %x (%g), portable 2×4 kernel gives %x (%g)",
					what, i, j, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
}

// canaryCase multiplies an m×k by a k×n matrix through all three entry points
// of the micro-kernel grid — Dgemm, PackA+GemmPackedA and, for k ≤ KC,
// gemmMacro itself — on the probe's kernels, on poisoned operands, and
// requires the bits of the portable 2×4 kernel and intact guards. Columns [0, lead) and [k−trail, k) of the left operand
// are zero so that its skyline starts the kernels at an offset into the panels.
func canaryCase(t *testing.T, rng *rand.Rand, trans Transpose, m, n, k, lead, trail int) {
	t.Helper()
	rowsA, colsA := m, k
	if trans == Trans {
		rowsA, colsA = k, m
	}
	lda, ldb, ldc := rowsA+1, k+2, m+3
	abuf, a := poisoned(rng, rowsA, colsA, lda)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			if l < lead || l >= k-trail {
				if trans == Trans {
					a[l+i*lda] = 0
				} else {
					a[i+l*lda] = 0
				}
			}
		}
	}
	bbuf, b := poisoned(rng, k, n, ldb)
	cbuf, c := poisoned(rng, m, n, ldc)
	abuf0, bbuf0, cbuf0 := slices.Clone(abuf), slices.Clone(bbuf), slices.Clone(cbuf)

	// Reference: the portable 2×4 kernel through Dgemm (one chain per element,
	// split at KC).
	want := slices.Clone(c)
	portable(func() {
		Dgemm(trans, NoTrans, m, n, k, 1, a, lda, b, ldb, 1, want, ldc)
	})

	pk := CurrentPacking()
	reset := func() { copy(cbuf, cbuf0) }
	check := func(what string, want []float64) {
		t.Helper()
		sameBits(t, what, c, want, m, n, ldc)
		checkGuards(t, what+": A", abuf, abuf0, 0, 0, lda)
		checkGuards(t, what+": B", bbuf, bbuf0, 0, 0, ldb)
		checkGuards(t, what+": C", cbuf, cbuf0, m, n, ldc)
	}

	Dgemm(trans, NoTrans, m, n, k, 1, a, lda, b, ldb, 1, c, ldc)
	check("Dgemm", want)

	reset()
	apbuf, ap := poisoned(rng, pk.ALen(m, k), 1, pk.ALen(m, k))
	pk.PackA(ap, trans, a, lda, m, k)
	apbuf0 := slices.Clone(apbuf)
	sbuf, scratch := poisoned(rng, pk.BScratch(k, n), 1, pk.BScratch(k, n))
	sbuf0 := slices.Clone(sbuf)
	pk.GemmPackedA(m, n, k, ap, b, ldb, c, ldc, scratch)
	check("GemmPackedA", want)
	checkGuards(t, "GemmPackedA: packed A", apbuf, apbuf0, 0, 0, 1)
	checkGuards(t, "GemmPackedA: scratch", sbuf, sbuf0, len(scratch), 1, len(scratch))

	if k > DefaultKC {
		return // gemmMacro runs one KC chunk; GemmPackedA above ran it on each
	}
	// gemmMacro on the packed A above (one chunk: its [lead, k−trail) skyline,
	// then its panels) and an exact-size poisoned packed B; neither pack buffer
	// may be touched.
	reset()
	sky, panels := pk.aChunk(ap, m, 0, k)
	bpbuf, bp := poisoned(rng, roundUp(n, microNR)*k, 1, roundUp(n, microNR)*k)
	packB(bp, NoTrans, b, ldb, 0, 0, k, n, 1)
	bpbuf0 := slices.Clone(bpbuf)
	gemmMacro(panels, bp, k, m, n, k, pk.mr, pk.asm, c, ldc, sky)
	check("gemmMacro", want)
	checkGuards(t, "gemmMacro: packed A", apbuf, apbuf0, 0, 0, 1)
	checkGuards(t, "gemmMacro: packed B", bpbuf, bpbuf0, 0, 0, 1)
}

// TestAsmKernelCanaries drives every tile shape the assembly path has — h
// valid rows of the last (padded) A panel, nr valid columns of the last B
// panel, alone and behind a full panel — at chain lengths from one step to
// past the KC split, with and without a skyline offset.
func TestAsmKernelCanaries(t *testing.T) {
	t.Logf("AsmActive() = %v", AsmActive())
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 2, 7, 12, 48, 128, 129} {
		for h := 1; h <= asmMR; h++ {
			for nr := 1; nr <= microNR; nr++ {
				for _, sk := range [][2]int{{0, 0}, {1, 0}, {3, 2}} {
					if sk[0]+sk[1] >= k {
						continue
					}
					canaryCase(t, rng, NoTrans, h, nr, k, sk[0], sk[1])
					canaryCase(t, rng, NoTrans, asmMR+h, microNR+nr, k, sk[0], sk[1])
					canaryCase(t, rng, Trans, asmMR+h, microNR+nr, k, sk[0], sk[1])
				}
			}
		}
	}
}

// TestAsmKernelBoundsAssertions checks that kern12x4asm refuses — by
// panicking in Go, before the assembly runs — every argument set whose tile
// would reach outside the slices: C must come back untouched.
func TestAsmKernelBoundsAssertions(t *testing.T) {
	if !asmKernels {
		t.Skip("no AVX2/FMA on this CPU: the assembly kernel never runs")
	}
	const kc, ldb, ldc = 5, 7, 9
	ones := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		return x
	}
	apLen, bpLen, cLen := asmMR*kc, 3*ldb+kc, 3*ldc+asmMR
	for _, tc := range []struct {
		name               string
		kc, ap, bp, c      int
		ldb, ldc, h, nr    int
		wantPanic, touches bool
	}{
		{name: "exact fit, full tile", kc: kc, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: asmMR, nr: 4, touches: true},
		{name: "exact fit, ragged tile", kc: kc, ap: apLen, bp: bpLen, c: 2*ldc + 3, ldb: ldb, ldc: ldc, h: 3, nr: 3, touches: true},
		{name: "short A panel", kc: kc, ap: apLen - 1, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: asmMR, nr: 4, wantPanic: true},
		{name: "short B streams", kc: kc, ap: apLen, bp: bpLen - 1, c: cLen, ldb: ldb, ldc: ldc, h: asmMR, nr: 4, wantPanic: true},
		{name: "short C, full tile", kc: kc, ap: apLen, bp: bpLen, c: cLen - 1, ldb: ldb, ldc: ldc, h: asmMR, nr: 4, wantPanic: true},
		{name: "short C, ragged tile", kc: kc, ap: apLen, bp: bpLen, c: 2*ldc + 2, ldb: ldb, ldc: ldc, h: 3, nr: 3, wantPanic: true, touches: true},
		{name: "kc = 0", kc: 0, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: asmMR, nr: 4, wantPanic: true},
		{name: "negative ldb", kc: kc, ap: apLen, bp: bpLen + 100, c: cLen, ldb: -1, ldc: ldc, h: asmMR, nr: 4, wantPanic: true},
		{name: "negative ldc", kc: kc, ap: apLen, bp: bpLen, c: cLen + 100, ldb: ldb, ldc: -1, h: asmMR, nr: 4, wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ap, bp, c := ones(tc.ap), ones(tc.bp), ones(tc.c)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				kern12x4asm(tc.kc, ap, bp, tc.ldb, c, tc.ldc, tc.h, tc.nr)
				return
			}()
			if panicked != tc.wantPanic {
				t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
			}
			touched := false
			for _, v := range c {
				touched = touched || v != 1
			}
			// A refused call must not have run the kernel on C. (The ragged
			// short-C case is refused by Go's own slicing after the kernel ran
			// on the staging tile, so earlier columns are legitimately updated.)
			if touched != tc.touches {
				t.Fatalf("C modified = %v, want %v", touched, tc.touches)
			}
		})
	}
}

// TestProbeWithoutAVX2 keeps the portable fallback tested on an AVX2/FMA
// host. The probe must fail when CPUID lacks any one of the bits it needs —
// FMA included — and UseAsm must never turn on what the probe refused. With
// the assembly turned off, GEMM must resolve to the 2×4 tile in the stream
// layout and reproduce the assembly run bit for bit, and so must the
// Level-1/2 routines on their portable twins.
func TestProbeWithoutAVX2(t *testing.T) {
	t.Logf("AsmActive() = %v", AsmActive())
	ecx1, ebx7, xcr0 := cpuBits()
	if got := cpuRunsKernels(ecx1, ebx7, xcr0); got != probedAsm || probedAsm != asmKernels {
		t.Fatalf("probe on this CPU's bits = %v, init-time probe = %v, in use = %v", got, probedAsm, asmKernels)
	}
	for _, c := range []struct {
		what             string
		ecx1, ebx7, xcr0 uint32
	}{
		{"FMA", ecx1 &^ cpuidFMA, ebx7, xcr0},
		{"AVX2", ecx1, ebx7 &^ cpuidAVX2, xcr0},
		{"OSXSAVE", ecx1 &^ cpuidOSXSAVE, ebx7, xcr0},
		{"YMM state", ecx1, ebx7, xcr0 &^ 0x4},
	} {
		if cpuRunsKernels(c.ecx1, c.ebx7, c.xcr0) {
			t.Errorf("probe passes with the %s bit cleared", c.what)
		}
	}
	func() {
		defer func(probed, on bool) { probedAsm, asmKernels = probed, on }(probedAsm, asmKernels)
		probedAsm = false
		if UseAsm(true); AsmActive() {
			t.Error("UseAsm(true) turned the assembly on where the probe failed")
		}
	}()
	if !asmKernels {
		t.Skip("no AVX2/FMA on this CPU: the probe's kernels already are the portable path")
	}
	if mr, asm := resolveMR(); mr != asmMR || !asm {
		t.Fatalf("with AVX2/FMA, GEMM resolves to mr=%d asm=%v, want the 12×4 assembly tile", mr, asm)
	}
	rng := rand.New(rand.NewSource(43))
	const m, n, k = 59, 37, 141
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	run := func() (gemm, packed []float64) {
		gemm = gemmOnce(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 1, c, m)
		pk := CurrentPacking()
		ap := make([]float64, pk.ALen(m, k))
		pk.PackA(ap, NoTrans, a, m, m, k)
		packed = slices.Clone(c)
		pk.GemmPackedA(m, n, k, ap, b, k, packed, m, make([]float64, pk.BScratch(k, n)))
		return gemm, packed
	}
	asmGemm, asmPacked := run()
	// The Level-1/2 routines sit behind the same probe: one pass through every
	// routed public routine, whose results the portable twins must reproduce.
	level := func() []float64 {
		x, y := slices.Clone(b[:m]), slices.Clone(b[m:2*m])
		s := slices.Clone(a[:m*m])
		Dgemv(NoTrans, m, n, 0.5, c, m, b, 1, 1, x, 1)
		Dgemv(Trans, m, n, 0.5, c, m, x, 1, 1, y, 1)
		Dsymv(Lower, m, -1.5, s, m, x, 1, 1, y, 1)
		Dger(m, m, 0.125, x, 1, y, 1, s, m)
		Dsyr2(Lower, m, 2, x, 1, y, 1, s, m)
		Daxpy(m, Ddot(m, x, 1, y, 1), s, 1, s[m:], 1)
		return s
	}
	asmLevel := level()

	if !UseAsm(false) {
		t.Fatal("UseAsm(false) reports the assembly was off")
	}
	t.Cleanup(func() { UseAsm(true) })
	if AsmActive() {
		t.Fatal("AsmActive() still true after UseAsm(false)")
	}
	if mr, asm := resolveMR(); mr != 2 || asm {
		t.Fatalf("without the assembly, GEMM resolves to mr=%d asm=%v, want the portable 2×4 tile", mr, asm)
	}
	if pk, want := CurrentPacking(), (Packing{mr: 2}); pk != want {
		t.Fatalf("CurrentPacking() = %+v, want the stream layout %+v", pk, want)
	}
	gemm, packed := run()
	sameBits(t, "Dgemm", asmGemm, gemm, m, n, m)
	sameBits(t, "GemmPackedA", asmPacked, packed, m, n, m)
	sameBits(t, "Level-1/2 routines", asmLevel, level(), m, m, m)
}
