package blas

// Dgemv computes y := alpha*op(A)*x + beta*y where op(A) is A or Aᵀ and A is
// an m×n column-major matrix, on the gemvN and gemvT kernels. y has unit
// stride and beta is 0 or 1; x has unit stride, except that NoTrans takes any
// positive stride (latrd multiplies by a row of its panel), gathered through a
// buffer.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("dgemv", m, n, a, lda)
	if trans != NoTrans && trans != Trans {
		panic(badParam("dgemv", "transpose"))
	}
	lenX, lenY := n, m
	if trans == Trans {
		lenX, lenY = m, n
	}
	checkVector("dgemv", lenX, x, incX)
	checkVector("dgemv", lenY, y, incY)
	if incY != 1 || (trans == Trans && incX != 1) {
		panic(badParam("dgemv", "increment (y, and x with Trans, must be 1)"))
	}
	checkBeta("dgemv", beta)
	if m == 0 || n == 0 {
		return
	}
	if beta == 0 {
		clear(y[:lenY])
	}
	if alpha == 0 {
		return
	}
	switch {
	case trans == Trans:
		gemvT(m, n, alpha, a, lda, x, y)
	case incX == 1:
		gemvN(m, n, alpha, a, lda, x, y)
	default:
		gemvNStaged(m, n, alpha, a, lda, x, incX, y)
	}
}

// stage is how many entries of a strided x gemvNStaged moves through its
// buffer at a time. Staging changes no result: every element of y still
// receives its terms in ascending column order.
const stage = 64

// gemvNStaged is y += alpha·A·x for a strided x (one entry per column of A,
// as when latrd multiplies by a row of its panel): gemvN on stage columns at a
// time, their x entries gathered.
func gemvNStaged(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64) {
	var buf [stage]float64
	ix := 0
	for j := 0; j < n; j += stage {
		xs := buf[:min(stage, n-j)]
		for k := range xs {
			xs[k] = x[ix]
			ix += incX
		}
		gemvN(m, len(xs), alpha, a[j*lda:], lda, xs, y)
	}
}

// Dsymv computes y := alpha*A*x + beta*y where A is an n×n symmetric matrix
// of which only the lower triangle is referenced, on the symvL kernel. Only
// what the solvers call is implemented: uplo must be Lower, both strides 1 and
// beta 0 or 1.
func Dsymv(uplo Uplo, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	DsymvRows(uplo, n, 0, n, alpha, a, lda, x, incX, beta, y, incY)
}

// DsymvRows computes the rows [lo, hi) of Dsymv's y := alpha*A*x + beta*y,
// with the bits Dsymv gives them, so that the rows of one product can be
// split between goroutines. Only the two halves of such a split are
// implemented: the leading rows (lo = 0), on the symvLHead kernel, or the
// trailing rows (hi = n), a gemvN over the columns before lo and then symvL on
// the trailing block. The split row must be a multiple of 4, which keeps every
// row where Dsymv's row quads put it; uplo, strides and beta are as for Dsymv.
func DsymvRows(uplo Uplo, n, lo, hi int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("dsymv", n, n, a, lda)
	checkVector("dsymv", n, x, incX)
	checkVector("dsymv", n, y, incY)
	if uplo != Lower {
		panic(badParam("dsymv", "uplo (only Lower supported)"))
	}
	checkUnit("dsymv", incX, incY)
	checkBeta("dsymv", beta)
	split := lo
	if lo == 0 {
		split = hi
	}
	if lo < 0 || lo > hi || hi > n || (lo != 0 && hi != n) || (split%4 != 0 && split != n) {
		panic(badParam("dsymv", "rows (a leading or trailing range split at a multiple of 4)"))
	}
	if lo == hi {
		return
	}
	if beta == 0 {
		clear(y[lo:hi])
	}
	if alpha == 0 {
		return
	}
	switch {
	case lo == 0 && hi == n:
		symvL(n, alpha, a, lda, x, y)
	case lo == 0:
		symvLHead(n, hi, alpha, a, lda, x, y)
	default:
		gemvN(n-lo, lo, alpha, a[lo:], lda, x, y[lo:])
		symvL(n-lo, alpha, a[lo+lo*lda:], lda, x[lo:], y[lo:])
	}
}

// Dger computes the rank-1 update A := alpha*x*yᵀ + A for an m×n matrix A and
// vectors of unit stride, on the ger kernel.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("dger", m, n, a, lda)
	checkVector("dger", m, x, incX)
	checkVector("dger", n, y, incY)
	checkUnit("dger", incX, incY)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	ger(m, n, alpha, x, y, a, lda)
}

// Dsyr2 computes the symmetric rank-2 update A := alpha*(x*yᵀ + y*xᵀ) + A on
// the lower triangle of the n×n matrix A, on the syr2L kernel. Only what the
// solvers call is implemented: uplo must be Lower and both strides 1.
func Dsyr2(uplo Uplo, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("dsyr2", n, n, a, lda)
	checkVector("dsyr2", n, x, incX)
	checkVector("dsyr2", n, y, incY)
	if uplo != Lower {
		panic(badParam("dsyr2", "uplo (only Lower supported)"))
	}
	checkUnit("dsyr2", incX, incY)
	if n == 0 || alpha == 0 {
		return
	}
	syr2L(n, alpha, x, y, a, lda)
}

// Dtrmv computes x := A*x for an n×n upper triangular matrix A and x of unit
// stride, the product Larft forms T with. Only that shape is implemented:
// uplo must be Upper, trans NoTrans, diag NonUnit and incX 1.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("dtrmv", n, n, a, lda)
	checkVector("dtrmv", n, x, incX)
	if uplo != Upper || trans != NoTrans || diag != NonUnit || incX != 1 {
		panic(badParam("dtrmv", "shape (only Upper, NoTrans, NonUnit, unit stride supported)"))
	}
	// Column order, each x[i] the running sum of its row from column i on:
	// row i takes a[i,i]·x[i] and then a[i,j]·x[j] for j = i+1… ascending,
	// and the sums of different rows do not wait for each other.
	for j := 0; j < n; j++ {
		col, xj := a[j*lda:j*lda+j+1], x[j]
		for i, aij := range col[:j] {
			x[i] += aij * xj
		}
		x[j] = col[j] * xj
	}
}
