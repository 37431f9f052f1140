//go:build !amd64

package blas

// There are no assembly micro-kernels off amd64: the probe chooses the
// portable 2×4 tile, and UseAsm cannot turn anything else on.

func probeKernel() kernelFamily { return famPortable }

// kern12x4asm and kern16x8asm are unreachable here (gemmMacro calls them only
// for their kernel families); they exist so the driver compiles.
func kern12x4asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	panic("blas: assembly kernel called on a build without one")
}

func kern16x8asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	panic("blas: assembly kernel called on a build without one")
}
