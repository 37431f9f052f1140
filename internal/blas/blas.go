// Package blas provides the subset of Level 1, 2 and 3 BLAS operations in
// double precision that the eigensolver stack is built on.
//
// Conventions follow the reference BLAS: matrices are stored column-major
// with an explicit leading dimension (lda), so element (i, j) of an m×n
// matrix a lives at a[i+j*lda] with lda >= m. All routines are pure Go and
// allocation-free on their hot paths.
//
// The signatures are the reference BLAS's, but outside Dgemm each routine
// implements only the shapes its callers make — Lower, NoTrans, NonUnit,
// unit strides and β ∈ {0, 1}, with the few exceptions each routine's doc
// names. Any other shape panics with a "bad …" message, never a wrong result.
//
// The Level 3 kernels (Gemm, Syr2k) are cache-blocked. Gemm's packed
// left-operand layout and micro-kernel grid are exported (Packing) for
// callers that multiply by one matrix many times. Every routine is
// sequential: the eigensolver extracts its parallelism one level up, from the
// task scheduler in internal/sched.
//
// On amd64 a CPU probe taken at start-up picks the GEMM micro-kernel: a 16×8
// AVX-512F tile with opmask-masked ragged edges where the CPU and OS have
// AVX-512F (CPUID leaf 7 EBX bit 16, XCR0 bits 1–2 and 5–7), else a 12×4
// AVX2/FMA tile where they have AVX2 and FMA, else — and off amd64 — the
// portable 2×4 tile. Under either assembly GEMM kernel the unit-stride
// Level-1/2 routines run eight AVX2/FMA kernels. Every kernel accumulates
// each result element as the same chain of fused multiply-adds its portable
// twin computes with math.FMA, so all three families give bitwise identical
// results; UseAsm(false), for tests, turns the assembly off.
package blas

import "fmt"

// Transpose selects op(X) for the Level 2/3 routines.
type Transpose byte

const (
	// NoTrans selects op(X) = X.
	NoTrans Transpose = 'N'
	// Trans selects op(X) = Xᵀ.
	Trans Transpose = 'T'
)

// Uplo selects which triangle of a symmetric or triangular matrix is
// referenced.
type Uplo byte

const (
	// Upper references the upper triangle.
	Upper Uplo = 'U'
	// Lower references the lower triangle.
	Lower Uplo = 'L'
)

// Side selects whether a matrix is applied from the left or the right.
type Side byte

const (
	// Left applies the operator from the left.
	Left Side = 'L'
	// Right applies the operator from the right.
	Right Side = 'R'
)

// Diag indicates whether a triangular matrix has a unit diagonal.
type Diag byte

// NonUnit means the diagonal entries are referenced (the only Diag Dtrmv
// supports).
const NonUnit Diag = 'N'

func badParam(routine, what string) string {
	return fmt.Sprintf("blas: %s: bad %s", routine, what)
}

// checkBeta panics unless beta is 0 or 1, the only output scalings the
// Level-2 routines implement.
func checkBeta(routine string, beta float64) {
	if beta != 0 && beta != 1 {
		panic(badParam(routine, "beta (only 0 and 1 supported)"))
	}
}

// checkMatrix panics if the described column-major matrix does not fit in a.
func checkMatrix(routine string, m, n int, a []float64, lda int) {
	if m < 0 || n < 0 {
		panic(badParam(routine, "dimension"))
	}
	if lda < max(1, m) {
		panic(badParam(routine, "leading dimension"))
	}
	if n > 0 && len(a) < (n-1)*lda+m {
		panic(badParam(routine, "matrix slice length"))
	}
}

// checkVector panics if the described strided vector does not fit in x or
// its increment is not positive.
func checkVector(routine string, n int, x []float64, incX int) {
	if n < 0 {
		panic(badParam(routine, "vector length"))
	}
	if incX < 1 {
		panic(badParam(routine, "vector increment"))
	}
	if n > 0 && len(x) < (n-1)*incX+1 {
		panic(badParam(routine, "vector slice length"))
	}
}

// checkUnit panics unless both increments are 1.
func checkUnit(routine string, incX, incY int) {
	if incX != 1 || incY != 1 {
		panic(badParam(routine, "increment (only 1 supported)"))
	}
}
