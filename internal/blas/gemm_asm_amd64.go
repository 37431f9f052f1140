//go:build amd64

package blas

import "math"

// The assembly micro-kernels, built into every amd64 binary and selected at
// run time: gemmMacro runs the family in kernel, i.e. the one the CPU probe
// chose unless UseAsm turned the assembly off. The 16×8 AVX-512F tile runs
// where the CPU and OS have AVX-512F, the 12×4 AVX2/FMA tile where they have
// only AVX2 and FMA. Every chain is fused — s ← fma(a, b, s), one rounding
// per step — which is also what the portable kernels compute with math.FMA,
// so the three are bitwise identical and the tests compare them for
// equality, not tolerance.

// gemm12x4fma computes C[12×4] += Ap·Bp over kc ≥ 1 steps: ap is a 12-row
// k-interleaved panel (12·kc values), bp the first of four length-kc B
// streams ldb apart, c the first of four 12-value C columns ldc apart. It
// checks nothing; kern12x4asm is its only caller.
//
//go:noescape
func gemm12x4fma(kc int, ap, bp *float64, ldb int, c *float64, ldc int)

// gemm16x8zmm computes C[16×8] += Ap·Bp over kc ≥ 1 steps on the rows set
// in the 16-bit mask rows and the first nr ≤ 8 columns: ap is a 16-row
// k-interleaved panel (16·kc values), bp the first of eight length-kc B
// streams ldb apart, c the first of nr C columns ldc
// apart. C rows outside rows and columns from nr on are neither read nor
// written. It checks nothing; kern16x8asm is its only caller.
//
//go:noescape
func gemm16x8zmm(kc int, ap, bp *float64, ldb int, c *float64, ldc int, rows uint64, nr int)

// cpuidAsm executes CPUID with the given eax/ecx inputs.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE).
func xgetbvAsm() (eax, edx uint32)

// probeKernel is the CPU probe taken once at package init (probedKernel).
func probeKernel() kernelFamily { return cpuKernel(cpuBits()) }

// cpuBits reads CPUID leaf 1 ECX, leaf 7 EBX (0 where the CPU has no leaf 7)
// and XCR0 (0 where the OS does not enable XGETBV).
func cpuBits() (ecx1, ebx7, xcr0 uint32) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	_, _, ecx1, _ = cpuidAsm(1, 0)
	if maxID >= 7 {
		_, ebx7, _, _ = cpuidAsm(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbvAsm()
	}
	return ecx1, ebx7, xcr0
}

// CPUID and XCR0 bits the assembly kernels need.
const (
	cpuidFMA     = 1 << 12 // leaf 1, ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1, ECX
	cpuidAVX2    = 1 << 5  // leaf 7, EBX
	cpuidAVX512F = 1 << 16 // leaf 7, EBX
	xcr0YMM      = 0x6     // XMM and YMM state enabled by the OS
	xcr0ZMM      = 0xE6    // and the opmask, ZMM0–15 upper halves and ZMM16–31
)

// cpuKernel decides from CPUID leaf 1 ECX, leaf 7 EBX and XCR0 which kernel
// family the CPU runs: AVX-512 needs AVX-512F and the OS preserving opmask
// and ZMM state across context switches, on top of what AVX2 needs — AVX2 and
// FMA, with YMM state preserved. Otherwise the portable kernels.
func cpuKernel(ecx1, ebx7, xcr0 uint32) kernelFamily {
	switch {
	case ecx1&(cpuidFMA|cpuidOSXSAVE) != cpuidFMA|cpuidOSXSAVE ||
		xcr0&xcr0YMM != xcr0YMM || ebx7&cpuidAVX2 == 0:
		return famPortable
	case xcr0&xcr0ZMM != xcr0ZMM || ebx7&cpuidAVX512F == 0:
		return famAVX2
	}
	return famAVX512
}

// negZeroTile is the staging tile's starting value: −0 is the additive
// identity of IEEE arithmetic (−0 + s is s for every s, −0 included), so the
// kernel's `tile + s` leaves each chain's sum unchanged bit for bit.
var negZeroTile = func() (t [12 * 4]float64) {
	for i := range t {
		t[i] = math.Copysign(0, -1)
	}
	return t
}()

// kern12x4asm adds the h×nr valid part of one 12×4 tile into C. ap is a full
// 12-row k-interleaved panel (rows h..11 of a ragged one are packed as
// zeros), bp four B streams ldb apart. A full tile is accumulated into C by
// the kernel itself. A ragged one (h < 12 rows or nr < 4 columns of C exist)
// is accumulated into a staging tile of −0, whose valid part is then added to
// C here, so C receives the same single add per element either way.
//
// This function is the assembly's memory-safety boundary: the index
// expressions below panic unless every address the kernel touches lies inside
// the slices it was given.
func kern12x4asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	const mr = 12
	if kc < 1 || ldb < 0 || ldc < 0 {
		panic("blas: kern12x4asm: bad dimensions")
	}
	_ = ap[mr*kc-1]
	_ = bp[3*ldb+kc-1]
	if h == mr && nr == 4 {
		_ = c[3*ldc+mr-1]
		gemm12x4fma(kc, &ap[0], &bp[0], ldb, &c[0], ldc)
		return
	}
	out := negZeroTile
	gemm12x4fma(kc, &ap[0], &bp[0], ldb, &out[0], mr)
	for j := 0; j < nr; j++ {
		cc := c[j*ldc : j*ldc+h]
		for i, s := range out[j*mr : j*mr+h] {
			cc[i] += s
		}
	}
}

// kern16x8asm adds the h×nr valid part of one 16×8 tile into C. ap is a full
// 16-row k-interleaved panel (rows h..15 of a ragged one are packed as
// zeros), bp eight B streams ldb apart (a ragged one's columns from nr on
// are zero-padded, as packB and GemmPackedA's scratch pad them). The kernel
// accumulates every tile into C itself, a
// ragged one through opmask-masked loads and stores that leave the rows from
// h and the columns from nr alone, so C receives one add per element and
// nothing else.
//
// This function is the assembly's memory-safety boundary: the checks below
// panic unless every address the kernel touches lies inside the slices it was
// given — C's last touched element, (h−1, nr−1), being its highest.
func kern16x8asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	const mr, w = 16, 8
	if kc < 1 || ldb < 0 || ldc < 0 || h < 1 || h > mr || nr < 1 || nr > w {
		panic("blas: kern16x8asm: bad dimensions")
	}
	_ = ap[mr*kc-1]
	_ = bp[(w-1)*ldb+kc-1]
	_ = c[(nr-1)*ldc+h-1]
	gemm16x8zmm(kc, &ap[0], &bp[0], ldb, &c[0], ldc, 1<<h-1, nr)
}
