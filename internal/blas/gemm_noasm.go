//go:build !blasasm || !amd64

package blas

// Stubs for builds without the assembly micro-kernel (no blasasm tag, or a
// non-amd64 target): the 8×4 tile runs its portable form and KernelAuto
// resolves to the portable 2×4 kernel (Blocking.resolveMR).

func asmActive() bool { return false }

func kern8x4asm(kc int, ap, bp []float64, c []float64, ldc, nr int) {
	kern8x4(kc, ap, kc, bp, kc, c, ldc, nr)
}
