//go:build amd64

package blas

// The AVX2 forms of the Level-1/2 kernels of level_kernels.go, under the same
// run-time probe as the GEMM micro-kernel (hasAVX2). The assembly checks
// nothing: each wrapper below is its kernel's only caller and its
// memory-safety boundary — it indexes the last element the kernel will touch
// of every operand, so a short slice panics here, in Go, and the kernel never
// runs on it. Lengths of zero return before any of that.

//go:noescape
func dotAVX2(n int, x, y *float64) float64

//go:noescape
func axpyAVX2(n int, alpha float64, x, y *float64)

//go:noescape
func gemvNAVX2(m, n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func gemvTAVX2(m, n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func gerAVX2(m, n int, alpha float64, x, y, a *float64, lda int)

//go:noescape
func symvLAVX2(n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func syr2LAVX2(n int, alpha float64, x, y, a *float64, lda int)

func dot(n int, x, y []float64) float64 {
	if n <= 0 {
		return 0
	}
	if !hasAVX2 {
		return dotGo(n, x, y)
	}
	_, _ = x[n-1], y[n-1]
	return dotAVX2(n, &x[0], &y[0])
}

func axpy(n int, alpha float64, x, y []float64) {
	if n <= 0 {
		return
	}
	if !hasAVX2 {
		axpyGo(n, alpha, x, y)
		return
	}
	_, _ = x[n-1], y[n-1]
	axpyAVX2(n, alpha, &x[0], &y[0])
}

// lastOf returns the index of the last element of an m×n column-major matrix
// with leading dimension lda, refusing an lda a kernel's column stride could
// not be.
func lastOf(m, n, lda int) int {
	if lda < m {
		panic("blas: level-2 kernel: leading dimension below the row count")
	}
	return (n-1)*lda + m - 1
}

func gemvN(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	if m <= 0 || n <= 0 {
		return
	}
	if !hasAVX2 {
		gemvNGo(m, n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[n-1], y[m-1]
	gemvNAVX2(m, n, alpha, &a[0], lda, &x[0], &y[0])
}

func gemvT(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	if m <= 0 || n <= 0 {
		return
	}
	if !hasAVX2 {
		gemvTGo(m, n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[m-1], y[n-1]
	gemvTAVX2(m, n, alpha, &a[0], lda, &x[0], &y[0])
}

func ger(m, n int, alpha float64, x, y, a []float64, lda int) {
	if m <= 0 || n <= 0 {
		return
	}
	if !hasAVX2 {
		gerGo(m, n, alpha, x, y, a, lda)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[m-1], y[n-1]
	gerAVX2(m, n, alpha, &x[0], &y[0], &a[0], lda)
}

func symvL(n int, alpha float64, a []float64, lda int, x, y []float64) {
	if n <= 0 {
		return
	}
	if !hasAVX2 {
		symvLGo(n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(n, n, lda)], x[n-1], y[n-1]
	symvLAVX2(n, alpha, &a[0], lda, &x[0], &y[0])
}

func syr2L(n int, alpha float64, x, y, a []float64, lda int) {
	if n <= 0 {
		return
	}
	if !hasAVX2 {
		syr2LGo(n, alpha, x, y, a, lda)
		return
	}
	_, _, _ = a[lastOf(n, n, lda)], x[n-1], y[n-1]
	syr2LAVX2(n, alpha, &x[0], &y[0], &a[0], lda)
}
