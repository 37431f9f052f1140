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
				t.Fatalf("%s: element (%d,%d) = %x (%g), the reference gives %x (%g)",
					what, i, j, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
}

// canaryCase multiplies an m×k by a k×n matrix through all three entry points
// of the micro-kernel grid — Dgemm, PackA+GemmPackedA and, for k ≤ KC,
// gemmMacro itself — on the kernels in use, on poisoned operands, and
// requires the bits of the portable 2×4 kernel and intact guards. Columns
// [0, lead) and [k−trail, k) of the left operand are zero so that its skyline
// starts the kernels at an offset into the panels. C's poison is a signaling
// NaN: a cell outside the m×n result that went through an add — a lane that
// escaped a masked store, say — comes back quieted, with other bits, where
// the quiet poison would come back unchanged.
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
	for i, v := range cbuf {
		if math.Float64bits(v) == math.Float64bits(poison) {
			cbuf[i] = signalingPoison
		}
	}
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
	gemmMacro(panels, bp, k, m, n, k, pk.kern, c, ldc, sky)
	check("gemmMacro", want)
	checkGuards(t, "gemmMacro: packed A", apbuf, apbuf0, 0, 0, 1)
	checkGuards(t, "gemmMacro: packed B", bpbuf, bpbuf0, 0, 0, 1)
}

// signalingPoison is a signaling NaN (quiet bit clear) with a recognizable
// payload: loads and stores keep its bits, arithmetic on it sets the quiet bit.
var signalingPoison = math.Float64frombits(0x7ff0_dead_beef_cafe)

// TestAsmKernelCanaries drives every tile shape the assembly paths have — h
// valid rows of the last (padded) A panel, nr valid columns of the last B
// panel, alone and behind a full 16-row panel — at chain lengths from one step
// to past the KC split, with and without a skyline offset, on every kernel
// family this CPU runs.
func TestAsmKernelCanaries(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	if math.Float64bits(signalingPoison+1) == math.Float64bits(signalingPoison) {
		t.Fatal("arithmetic on the signaling poison keeps its bits")
	}
	forEachPath(func(path string) {
		rng := rand.New(rand.NewSource(41))
		for _, k := range []int{1, 2, 7, 12, 48, 128, 129} {
			for h := 1; h <= maxMR; h++ {
				for nr := 1; nr <= microNR; nr++ {
					for _, sk := range [][2]int{{0, 0}, {1, 0}, {3, 2}} {
						if sk[0]+sk[1] >= k {
							continue
						}
						canaryCase(t, rng, NoTrans, h, nr, k, sk[0], sk[1])
						canaryCase(t, rng, NoTrans, maxMR+h, microNR+nr, k, sk[0], sk[1])
						canaryCase(t, rng, Trans, maxMR+h, microNR+nr, k, sk[0], sk[1])
					}
				}
			}
		}
	})
}

// asmKernel is the Go wrapper, and memory-safety boundary, of each assembly
// kernel family.
var asmKernel = map[kernelFamily]func(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int){
	famAVX2:   kern12x4asm,
	famAVX512: kern16x4asm,
}

// TestAsmKernelBoundsAssertions checks that each assembly kernel's wrapper
// refuses — by panicking in Go, before the assembly runs — every argument set
// whose tile would reach outside the slices: C must come back untouched. The
// one exception is the AVX2 tile's ragged short C, which Go's own slicing
// refuses only after the kernel ran on the staging tile, so earlier columns
// are legitimately updated; the AVX-512 tile's masked stores need no staging,
// so its wrapper refuses that call up front.
func TestAsmKernelBoundsAssertions(t *testing.T) {
	if probedKernel == famPortable {
		t.Skip("no AVX2/FMA on this CPU: the assembly kernels never run")
	}
	const kc, ldb, ldc = 5, 7, 9
	ones := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		return x
	}
	type boundsCase struct {
		name               string
		kc, ap, bp, c      int
		ldb, ldc, h, nr    int
		wantPanic, touches bool
	}
	// cases lists the argument sets for one kernel; every kernel has the same
	// names in the same order, and the masked kernel four more at the end.
	cases := func(kern kernelFamily) []boundsCase {
		mr := kern.mr()
		apLen, bpLen, cLen := mr*kc, 3*ldb+kc, 3*ldc+mr
		cs := []boundsCase{
			{name: "exact fit, full tile", kc: kc, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: mr, nr: 4, touches: true},
			{name: "exact fit, ragged tile", kc: kc, ap: apLen, bp: bpLen, c: 2*ldc + 3, ldb: ldb, ldc: ldc, h: 3, nr: 3, touches: true},
			{name: "short A panel", kc: kc, ap: apLen - 1, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: mr, nr: 4, wantPanic: true},
			{name: "short B streams", kc: kc, ap: apLen, bp: bpLen - 1, c: cLen, ldb: ldb, ldc: ldc, h: mr, nr: 4, wantPanic: true},
			{name: "short C, full tile", kc: kc, ap: apLen, bp: bpLen, c: cLen - 1, ldb: ldb, ldc: ldc, h: mr, nr: 4, wantPanic: true},
			{name: "short C, ragged tile", kc: kc, ap: apLen, bp: bpLen, c: 2*ldc + 2, ldb: ldb, ldc: ldc, h: 3, nr: 3, wantPanic: true, touches: kern == famAVX2},
			{name: "kc = 0", kc: 0, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: mr, nr: 4, wantPanic: true},
			{name: "negative ldb", kc: kc, ap: apLen, bp: bpLen + 100, c: cLen, ldb: -1, ldc: ldc, h: mr, nr: 4, wantPanic: true},
			{name: "negative ldc", kc: kc, ap: apLen, bp: bpLen, c: cLen + 100, ldb: ldb, ldc: -1, h: mr, nr: 4, wantPanic: true},
		}
		if kern == famAVX512 { // the masked kernel's wrapper also range-checks h and nr
			cs = append(cs,
				boundsCase{name: "h = 0", kc: kc, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: 0, nr: 4, wantPanic: true},
				boundsCase{name: "h past the tile", kc: kc, ap: apLen, bp: bpLen, c: cLen + 100, ldb: ldb, ldc: ldc, h: mr + 1, nr: 4, wantPanic: true},
				boundsCase{name: "nr = 0", kc: kc, ap: apLen, bp: bpLen, c: cLen, ldb: ldb, ldc: ldc, h: mr, nr: 0, wantPanic: true},
				boundsCase{name: "nr past the tile", kc: kc, ap: apLen, bp: bpLen, c: cLen + 100, ldb: ldb, ldc: ldc, h: mr, nr: 5, wantPanic: true},
			)
		}
		return cs
	}
	for i, named := range cases(famAVX512) {
		t.Run(named.name, func(t *testing.T) {
			for kern := famAVX2; kern <= probedKernel; kern++ {
				cs := cases(kern)
				if i >= len(cs) {
					continue
				}
				tc := cs[i]
				t.Run(kern.String(), func(t *testing.T) {
					ap, bp, c := ones(tc.ap), ones(tc.bp), ones(tc.c)
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						asmKernel[kern](tc.kc, ap, bp, tc.ldb, c, tc.ldc, tc.h, tc.nr)
						return
					}()
					if panicked != tc.wantPanic {
						t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
					}
					touched := false
					for _, v := range c {
						touched = touched || v != 1
					}
					if touched != tc.touches {
						t.Fatalf("C modified = %v, want %v", touched, tc.touches)
					}
				})
			}
		})
	}
}

// TestProbeWithoutAVX2 keeps every fallback of the probe's decision table
// tested on whatever host runs it. With AVX-512F and XCR0 0xE6 (opmask and
// ZMM state), GEMM resolves to the 16-row ZMM tile; without AVX-512F or any of
// XCR0 bits 5–7 to the 12×4 AVX2 tile; without AVX2, FMA, OSXSAVE or YMM
// state to the portable 2×4 tile. UseAsm(true) must never turn on a kernel
// the probe refused, and UseAsm(false) must make everything portable. Then
// every kernel family the CPU runs must reproduce the others bit for bit,
// for GEMM and, behind the same switch, the Level-1/2 routines.
func TestProbeWithoutAVX2(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	if got := cpuKernel(cpuBits()); got != probedKernel || kernel != probedKernel {
		t.Fatalf("probe on this CPU's bits = %v, init-time probe = %v, in use = %v", got, probedKernel, kernel)
	}
	const ecx1, ebx7, xcr0 = cpuidFMA | cpuidOSXSAVE, cpuidAVX2 | cpuidAVX512F, 0xE7
	for _, c := range []struct {
		what             string
		ecx1, ebx7, xcr0 uint32
		want             kernelFamily
	}{
		{"nothing", ecx1, ebx7, xcr0, famAVX512},
		{"AVX-512F", ecx1, ebx7 &^ cpuidAVX512F, xcr0, famAVX2},
		{"opmask state", ecx1, ebx7, xcr0 &^ 0x20, famAVX2},
		{"ZMM0–15 upper state", ecx1, ebx7, xcr0 &^ 0x40, famAVX2},
		{"ZMM16–31 state", ecx1, ebx7, xcr0 &^ 0x80, famAVX2},
		{"AVX2", ecx1, ebx7 &^ cpuidAVX2, xcr0, famPortable},
		{"FMA", ecx1 &^ cpuidFMA, ebx7, xcr0, famPortable},
		{"OSXSAVE", ecx1 &^ cpuidOSXSAVE, ebx7, xcr0, famPortable},
		{"YMM state", ecx1, ebx7, xcr0 &^ 0x4, famPortable},
		{"AVX-512F and FMA", ecx1 &^ cpuidFMA, ebx7 &^ cpuidAVX512F, xcr0, famPortable},
	} {
		if got := cpuKernel(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("cleared %s: the probe chooses %v, want %v", c.what, got, c.want)
		}
	}
	for p := famPortable; p <= famAVX512; p++ {
		func() {
			defer func(probed, in kernelFamily) { probedKernel, kernel = probed, in }(probedKernel, kernel)
			probedKernel, kernel = p, famPortable
			// UseAsm returns whether the assembly was on before the call:
			// `defer UseAsm(UseAsm(false))` restores the probe's kernels by it.
			if prev := UseAsm(true); prev || kernel != p {
				t.Errorf("probe %v: UseAsm(true) from portable returns %v and selects %v", p, prev, kernel)
			}
			if prev := UseAsm(false); prev != (p != famPortable) || kernel != famPortable {
				t.Errorf("probe %v: UseAsm(false) returns %v, want %v, and selects %v", p, prev, p != famPortable, kernel)
			}
			if prev := UseAsm(false); prev || kernel != famPortable {
				t.Errorf("probe %v: a second UseAsm(false) returns %v and selects %v", p, prev, kernel)
			}
			if pk, want := CurrentPacking(), (Packing{kern: famPortable}); pk != want {
				t.Errorf("probe %v: after UseAsm(false) CurrentPacking() = %+v, want the stream layout %+v", p, pk, want)
			}
		}()
	}
	rng := rand.New(rand.NewSource(43))
	const m, n, k = 59, 37, 141
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	type outcome struct{ gemm, packed, level []float64 }
	run := func() (o outcome) {
		o.gemm = gemmOnce(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 1, c, m)
		pk := CurrentPacking()
		ap := make([]float64, pk.ALen(m, k))
		pk.PackA(ap, NoTrans, a, m, m, k)
		o.packed = slices.Clone(c)
		pk.GemmPackedA(m, n, k, ap, b, k, o.packed, m, make([]float64, pk.BScratch(k, n)))
		// The Level-1/2 routines sit behind the same switch: one pass through
		// every routed public routine.
		x, y := slices.Clone(b[:m]), slices.Clone(b[m:2*m])
		s := slices.Clone(a[:m*m])
		Dgemv(NoTrans, m, n, 0.5, c, m, b, 1, 1, x, 1)
		Dgemv(Trans, m, n, 0.5, c, m, x, 1, 1, y, 1)
		Dsymv(Lower, m, -1.5, s, m, x, 1, 1, y, 1)
		Dger(m, m, 0.125, x, 1, y, 1, s, m)
		Dsyr2(Lower, m, 2, x, 1, y, 1, s, m)
		Daxpy(m, Ddot(m, x, 1, y, 1), s, 1, s[m:], 1)
		o.level = s
		return o
	}
	var want outcome
	forEachPath(func(path string) {
		if pk := CurrentPacking(); pk.kern != kernel {
			t.Fatalf("%s: CurrentPacking() = %+v", path, pk)
		}
		got := run()
		if want.gemm == nil {
			want = got
			return
		}
		sameBits(t, path+": Dgemm", got.gemm, want.gemm, m, n, m)
		sameBits(t, path+": GemmPackedA", got.packed, want.packed, m, n, m)
		sameBits(t, path+": Level-1/2 routines", got.level, want.level, m, m, m)
	})
}
