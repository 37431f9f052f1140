//go:build amd64

package blas

// The AVX2/FMA forms of the Level-1/2 kernels of level_kernels.go, under the
// same run-time probe as the GEMM micro-kernel: they run under either
// assembly GEMM family, AVX2 or AVX-512 (kernel != famPortable). The assembly
// checks nothing: each wrapper below is its kernel's only caller and its
// memory-safety boundary — it indexes the last element the kernel will touch
// of every operand, so a short slice panics here, in Go, and the kernel never
// runs on it. Lengths of zero return before any of that.

//go:noescape
func dotFMA(n int, x, y *float64) float64

//go:noescape
func axpyFMA(n int, alpha float64, x, y *float64)

//go:noescape
func gemvNFMA(m, n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func gemvTFMA(m, n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func gerFMA(m, n int, alpha float64, x, y, a *float64, lda int)

//go:noescape
func symvLFMA(n int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func symvLHeadFMA(n, r int, alpha float64, a *float64, lda int, x, y *float64)

//go:noescape
func syr2LFMA(n int, alpha float64, x, y, a *float64, lda int)

func dot(n int, x, y []float64) float64 {
	if n <= 0 {
		return 0
	}
	if kernel == famPortable {
		return dotGo(n, x, y)
	}
	_, _ = x[n-1], y[n-1]
	return dotFMA(n, &x[0], &y[0])
}

func axpy(n int, alpha float64, x, y []float64) {
	if n <= 0 {
		return
	}
	if kernel == famPortable {
		axpyGo(n, alpha, x, y)
		return
	}
	_, _ = x[n-1], y[n-1]
	axpyFMA(n, alpha, &x[0], &y[0])
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
	if kernel == famPortable {
		gemvNGo(m, n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[n-1], y[m-1]
	gemvNFMA(m, n, alpha, &a[0], lda, &x[0], &y[0])
}

func gemvT(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	if m <= 0 || n <= 0 {
		return
	}
	if kernel == famPortable {
		gemvTGo(m, n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[m-1], y[n-1]
	gemvTFMA(m, n, alpha, &a[0], lda, &x[0], &y[0])
}

func ger(m, n int, alpha float64, x, y, a []float64, lda int) {
	if m <= 0 || n <= 0 {
		return
	}
	if kernel == famPortable {
		gerGo(m, n, alpha, x, y, a, lda)
		return
	}
	_, _, _ = a[lastOf(m, n, lda)], x[m-1], y[n-1]
	gerFMA(m, n, alpha, &x[0], &y[0], &a[0], lda)
}

func symvL(n int, alpha float64, a []float64, lda int, x, y []float64) {
	if n <= 0 {
		return
	}
	if kernel == famPortable {
		symvLGo(n, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(n, n, lda)], x[n-1], y[n-1]
	symvLFMA(n, alpha, &a[0], lda, &x[0], &y[0])
}

// symvLHead also refuses an r its group loop would run past: one that is not
// a multiple of 4 or exceeds n.
func symvLHead(n, r int, alpha float64, a []float64, lda int, x, y []float64) {
	if r%4 != 0 || r > n {
		panic("blas: symvLHead: split row not a multiple of 4 within the order")
	}
	if r <= 0 {
		return
	}
	if kernel == famPortable {
		symvLHeadGo(n, r, alpha, a, lda, x, y)
		return
	}
	_, _, _ = a[lastOf(n, r, lda)], x[n-1], y[r-1]
	symvLHeadFMA(n, r, alpha, &a[0], lda, &x[0], &y[0])
}

func syr2L(n int, alpha float64, x, y, a []float64, lda int) {
	if n <= 0 {
		return
	}
	if kernel == famPortable {
		syr2LGo(n, alpha, x, y, a, lda)
		return
	}
	_, _, _ = a[lastOf(n, n, lda)], x[n-1], y[n-1]
	syr2LFMA(n, alpha, &x[0], &y[0], &a[0], lda)
}
