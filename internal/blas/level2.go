package blas

// scaleVector computes y := beta*y for a strided n-vector (beta = 0 stores
// zeros whatever y held).
func scaleVector(n int, beta float64, y []float64, incY int) {
	switch beta {
	case 1:
	case 0:
		iy := startIdx(n, incY)
		for i := 0; i < n; i++ {
			y[iy] = 0
			iy += incY
		}
	default:
		Dscal(n, beta, y, incY)
	}
}

// Dgemv computes y := alpha*op(A)*x + beta*y where op(A) is A or Aᵀ and A is
// an m×n column-major matrix. Unit strides run on the gemvN and gemvT kernels,
// as does NoTrans with only x strided (gathered through a buffer); every other
// strided call keeps a plain loop.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("dgemv", m, n, a, lda)
	lenX, lenY := n, m
	if trans == Trans {
		lenX, lenY = m, n
	}
	checkVector("dgemv", lenX, x, incX)
	checkVector("dgemv", lenY, y, incY)
	if m == 0 || n == 0 {
		return
	}
	scaleVector(lenY, beta, y, incY)
	if alpha == 0 {
		return
	}
	switch {
	case trans == NoTrans && incY == 1 && incX == 1:
		gemvN(m, n, alpha, a, lda, x, y)
	case trans == NoTrans && incY == 1:
		gemvNStaged(m, n, alpha, a, lda, x, incX, y)
	case trans == NoTrans:
		ix := startIdx(n, incX)
		for j := 0; j < n; j++ {
			t := alpha * x[ix]
			ix += incX
			col := a[j*lda : j*lda+m]
			iy := startIdx(m, incY)
			for i := 0; i < m; i++ {
				y[iy] += t * col[i]
				iy += incY
			}
		}
	case trans == Trans && incX == 1 && incY == 1:
		gemvT(m, n, alpha, a, lda, x, y)
	case trans == Trans:
		iy := startIdx(n, incY)
		for j := 0; j < n; j++ {
			col := a[j*lda : j*lda+m]
			var sum float64
			ix := startIdx(m, incX)
			for i := 0; i < m; i++ {
				sum += col[i] * x[ix]
				ix += incX
			}
			y[iy] += alpha * sum
			iy += incY
		}
	default:
		panic(badParam("dgemv", "transpose"))
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
	ix := startIdx(n, incX)
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
// of which only the triangle selected by uplo is referenced. Lower with unit
// strides — every call the solvers make — runs on the symvL kernel.
func Dsymv(uplo Uplo, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("dsymv", n, n, a, lda)
	checkVector("dsymv", n, x, incX)
	checkVector("dsymv", n, y, incY)
	if uplo != Lower && uplo != Upper {
		panic(badParam("dsymv", "uplo"))
	}
	if n == 0 {
		return
	}
	scaleVector(n, beta, y, incY)
	if alpha == 0 {
		return
	}
	if incX != 1 || incY != 1 {
		// The eigensolver only uses unit strides; keep the strided path
		// simple and correct rather than fast.
		x0, y0 := startIdx(n, incX), startIdx(n, incY)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += symAt(uplo, a, lda, j, i) * x[x0+i*incX]
			}
			y[y0+j*incY] += alpha * s
		}
		return
	}
	if uplo == Lower {
		symvL(n, alpha, a, lda, x, y)
		return
	}
	// Each stored column j contributes an axpy into y (the column itself)
	// and a dot product against x (its mirrored row).
	for j := 0; j < n; j++ {
		t := alpha * x[j]
		col := a[j*lda:]
		var s0, s1 float64
		i := 0
		for ; i+3 < j; i += 4 {
			v0, v1, v2, v3 := col[i], col[i+1], col[i+2], col[i+3]
			y[i] += t * v0
			y[i+1] += t * v1
			y[i+2] += t * v2
			y[i+3] += t * v3
			s0 += v0*x[i] + v1*x[i+1]
			s1 += v2*x[i+2] + v3*x[i+3]
		}
		for ; i < j; i++ {
			v := col[i]
			y[i] += t * v
			s0 += v * x[i]
		}
		y[j] += t*col[j] + alpha*(s0+s1)
	}
}

// symAt reads element (i, j) of a symmetric matrix stored in the given
// triangle.
func symAt(uplo Uplo, a []float64, lda, i, j int) float64 {
	if (uplo == Lower && i < j) || (uplo == Upper && i > j) {
		i, j = j, i
	}
	return a[i+j*lda]
}

// Dger computes the rank-1 update A := alpha*x*yᵀ + A for an m×n matrix A;
// unit strides run on the ger kernel.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("dger", m, n, a, lda)
	checkVector("dger", m, x, incX)
	checkVector("dger", n, y, incY)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 {
		ger(m, n, alpha, x, y, a, lda)
		return
	}
	iy := startIdx(n, incY)
	for j := 0; j < n; j++ {
		t := alpha * y[iy]
		iy += incY
		col := a[j*lda : j*lda+m]
		ix := startIdx(m, incX)
		for i := range col {
			col[i] += t * x[ix]
			ix += incX
		}
	}
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
	if incX != 1 || incY != 1 {
		panic(badParam("dsyr2", "increment (only 1 supported)"))
	}
	if n == 0 || alpha == 0 {
		return
	}
	syr2L(n, alpha, x, y, a, lda)
}

// Dtrmv computes x := op(A)*x for an n×n triangular matrix A.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("dtrmv", n, n, a, lda)
	checkVector("dtrmv", n, x, incX)
	if n == 0 {
		return
	}
	if incX != 1 {
		panic(badParam("dtrmv", "increment (only 1 supported)"))
	}
	unit := diag == Unit
	switch {
	case uplo == Upper && trans == NoTrans:
		for i := 0; i < n; i++ {
			var sum float64
			if !unit {
				sum = a[i+i*lda] * x[i]
			} else {
				sum = x[i]
			}
			for j := i + 1; j < n; j++ {
				sum += a[i+j*lda] * x[j]
			}
			x[i] = sum
		}
	case uplo == Upper && trans == Trans:
		for i := n - 1; i >= 0; i-- {
			var sum float64
			if !unit {
				sum = a[i+i*lda] * x[i]
			} else {
				sum = x[i]
			}
			for j := 0; j < i; j++ {
				sum += a[j+i*lda] * x[j]
			}
			x[i] = sum
		}
	case uplo == Lower && trans == NoTrans:
		for i := n - 1; i >= 0; i-- {
			var sum float64
			if !unit {
				sum = a[i+i*lda] * x[i]
			} else {
				sum = x[i]
			}
			for j := 0; j < i; j++ {
				sum += a[i+j*lda] * x[j]
			}
			x[i] = sum
		}
	case uplo == Lower && trans == Trans:
		for i := 0; i < n; i++ {
			var sum float64
			if !unit {
				sum = a[i+i*lda] * x[i]
			} else {
				sum = x[i]
			}
			for j := i + 1; j < n; j++ {
				sum += a[j+i*lda] * x[j]
			}
			x[i] = sum
		}
	}
}
