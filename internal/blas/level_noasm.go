//go:build !amd64

package blas

// Off amd64 the Level-1/2 kernels are their portable twins.

func dot(n int, x, y []float64) float64         { return dotGo(n, x, y) }
func axpy(n int, alpha float64, x, y []float64) { axpyGo(n, alpha, x, y) }

func gemvN(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	gemvNGo(m, n, alpha, a, lda, x, y)
}

func gemvT(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	gemvTGo(m, n, alpha, a, lda, x, y)
}

func ger(m, n int, alpha float64, x, y, a []float64, lda int) { gerGo(m, n, alpha, x, y, a, lda) }

func symvL(n int, alpha float64, a []float64, lda int, x, y []float64) {
	symvLGo(n, alpha, a, lda, x, y)
}

func symvLHead(n, r int, alpha float64, a []float64, lda int, x, y []float64) {
	symvLHeadGo(n, r, alpha, a, lda, x, y)
}

func syr2L(n int, alpha float64, x, y, a []float64, lda int) { syr2LGo(n, alpha, x, y, a, lda) }
