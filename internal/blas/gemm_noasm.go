//go:build !amd64

package blas

// There is no assembly micro-kernel off amd64: the probe fails, UseAsm cannot
// turn it on, and resolveMR always selects the portable 2×4 tile.

func probeAsm() bool { return false }

// kern12x4asm is unreachable here (gemmMacro calls it only when resolveMR
// reported the assembly layout); it exists so the driver compiles.
func kern12x4asm(kc int, ap, bp []float64, ldb int, c []float64, ldc, h, nr int) {
	panic("blas: assembly kernel called on a build without one")
}
