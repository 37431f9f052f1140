//go:build !amd64

package blas

// There is no assembly micro-kernel off amd64: asmActive is false, so
// Blocking.resolveMR never selects the assembly layout, KernelAuto runs the
// portable 2×4 tile and Kernel8x4 its portable form.

func asmActive() bool { return false }

// kern8x4asm is unreachable here (gemmMacro calls it only when resolveMR
// reported the assembly layout); it exists so the driver compiles.
func kern8x4asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	panic("blas: assembly kernel called on a build without one")
}
