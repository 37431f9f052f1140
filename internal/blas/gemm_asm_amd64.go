//go:build blasasm && amd64

package blas

// The AVX2 8×4 micro-kernel, compiled in with -tags blasasm. It deliberately
// uses separate VMULPD/VADDPD instructions rather than FMA: each of the 32
// accumulator chains then performs exactly the multiply-round/add-round
// sequence of the portable kern8x4, so the two are bitwise identical and
// the gate in scripts/check.sh can compare them for equality, not
// tolerance. (Fusing would also break equality with default Go builds,
// which do not emit FMA on amd64 at GOAMD64=v1.)
//
// Availability is probed once at startup via CPUID/XGETBV: AVX2 plus OS
// support for YMM state. Without it the portable kernel runs and the build
// tag is inert.

// gemm8x4avx2 computes out[8×4] = Ap·Bp over kc steps of the packed panels
// (ap advances 8 values per step, bp 4). out is column-major contiguous and
// fully overwritten.
//
//go:noescape
func gemm8x4avx2(kc int, ap, bp, out *float64)

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

// asmActive reports whether the assembly micro-kernel will run full tiles.
func asmActive() bool { return hasAVX2 }

// kern8x4asm adds one 8×4 tile computed by the assembly kernel into C. The
// kernel writes register sums to a contiguous staging tile; the single
// add-to-memory per element here matches the portable kernels' rounding.
func kern8x4asm(kc int, ap, bp []float64, c []float64, ldc, nr int) {
	if !hasAVX2 {
		kern8x4(kc, ap, kc, bp, kc, c, ldc, nr)
		return
	}
	var out [32]float64
	gemm8x4avx2(kc, &ap[0], &bp[0], &out[0])
	for j := 0; j < nr; j++ {
		cc := c[j*ldc : j*ldc+8]
		o := out[j*8 : j*8+8]
		for i := range cc {
			cc[i] += o[i]
		}
	}
}
