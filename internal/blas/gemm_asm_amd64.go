//go:build amd64

package blas

// The AVX2 8×4 micro-kernel, built into every amd64 binary and selected at
// run time: hasAVX2 probes the CPU once at init, and KernelAuto (and
// Kernel8x4) run the assembly only when the probe passes. It deliberately
// uses separate VMULPD/VADDPD instructions rather than FMA: each of the 32
// accumulator chains then performs exactly the multiply-round/add-round
// sequence of the portable kernels, so the two are bitwise identical and the
// tests compare them for equality, not tolerance. (Fusing would also break
// equality with what the Go compiler emits for the rest of the program, which
// is no FMA on amd64 at GOAMD64=v1.)

// gemm8x4avx2 computes C[8×4] += Ap·Bp over kc ≥ 1 steps: ap is an 8-row
// k-interleaved panel (8·kc values), bp the first of four length-kc B streams
// ldb apart, c the first of four 8-value C columns ldc apart. It checks
// nothing; kern8x4asm is its only caller.
//
//go:noescape
func gemm8x4avx2(kc int, ap, bp *float64, ldb int, c *float64, ldc int)

// cpuidAsm executes CPUID with the given eax/ecx inputs.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE).
func xgetbvAsm() (eax, edx uint32)

// hasAVX2 reports whether the CPU supports AVX2 and the OS preserves YMM
// state across context switches.
var hasAVX2 = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	xlo, _ := xgetbvAsm()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

// asmActive reports whether the assembly micro-kernel runs the 8×4 tiles.
func asmActive() bool { return hasAVX2 }

// kern8x4asm adds the h×nr valid part of one 8×4 tile into C. ap is a full
// 8-row k-interleaved panel (rows h..7 of a ragged one are packed as zeros),
// bp four B streams ldb apart. A full tile is accumulated into C by the
// kernel itself. A ragged one (h < 8 rows or nr < 4 columns of C exist) is
// accumulated into a zeroed staging tile, whose valid part is then added to C
// here: a chain that starts at +0 never sums to −0, so 0 + s is s bit for bit
// and C receives the same single add per element either way.
//
// This function is the assembly's memory-safety boundary: the index
// expressions below panic unless every address the kernel touches lies inside
// the slices it was given.
func kern8x4asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	if kc < 1 || ldb < 0 || ldc < 0 {
		panic("blas: kern8x4asm: bad dimensions")
	}
	_ = ap[8*kc-1]
	_ = bp[3*ldb+kc-1]
	if h == 8 && nr == microNR {
		_ = c[3*ldc+7]
		gemm8x4avx2(kc, &ap[0], &bp[0], ldb, &c[0], ldc)
		return
	}
	var out [8 * microNR]float64
	gemm8x4avx2(kc, &ap[0], &bp[0], ldb, &out[0], 8)
	for j := 0; j < nr; j++ {
		cc := c[j*ldc : j*ldc+h]
		for i, s := range out[j*8 : j*8+h] {
			cc[i] += s
		}
	}
}
