package blas

// Dgemv computes y := alpha*op(A)*x + beta*y where op(A) is A or Aᵀ and A is
// an m×n column-major matrix.
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
	if beta != 1 {
		if beta == 0 {
			iy := startIdx(lenY, incY)
			for i := 0; i < lenY; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			Dscal(lenY, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	switch trans {
	case NoTrans:
		// y += alpha * A * x, traversing A by columns.
		ix := startIdx(n, incX)
		if incY == 1 {
			// Fast path: fuse four column axpys per pass over y, so each
			// y element is loaded and stored once per four columns instead
			// of once per column.
			yy := y[:m]
			j := 0
			for ; j+3 < n; j += 4 {
				t0 := alpha * x[ix]
				t1 := alpha * x[ix+incX]
				t2 := alpha * x[ix+2*incX]
				t3 := alpha * x[ix+3*incX]
				ix += 4 * incX
				c0 := a[(j+0)*lda : (j+0)*lda+m]
				c1 := a[(j+1)*lda : (j+1)*lda+m]
				c2 := a[(j+2)*lda : (j+2)*lda+m]
				c3 := a[(j+3)*lda : (j+3)*lda+m]
				for i, v := range c0 {
					yy[i] += t0*v + t1*c1[i] + t2*c2[i] + t3*c3[i]
				}
			}
			for ; j < n; j++ {
				t := alpha * x[ix]
				ix += incX
				if t != 0 {
					col := a[j*lda : j*lda+m]
					for i, v := range col {
						yy[i] += t * v
					}
				}
			}
			return
		}
		for j := 0; j < n; j++ {
			t := alpha * x[ix]
			ix += incX
			if t != 0 {
				col := a[j*lda : j*lda+m]
				iy := startIdx(m, incY)
				for i := 0; i < m; i++ {
					y[iy] += t * col[i]
					iy += incY
				}
			}
		}
	case Trans:
		// y += alpha * Aᵀ * x: each column of A dotted with x.
		iy := startIdx(n, incY)
		if incX == 1 {
			// Fast path: four simultaneous dot products share each load
			// of x.
			xx := x[:m]
			j := 0
			for ; j+3 < n; j += 4 {
				c0 := a[(j+0)*lda : (j+0)*lda+m]
				c1 := a[(j+1)*lda : (j+1)*lda+m]
				c2 := a[(j+2)*lda : (j+2)*lda+m]
				c3 := a[(j+3)*lda : (j+3)*lda+m]
				var s0, s1, s2, s3 float64
				for i, xv := range xx {
					s0 += c0[i] * xv
					s1 += c1[i] * xv
					s2 += c2[i] * xv
					s3 += c3[i] * xv
				}
				y[iy] += alpha * s0
				y[iy+incY] += alpha * s1
				y[iy+2*incY] += alpha * s2
				y[iy+3*incY] += alpha * s3
				iy += 4 * incY
			}
			for ; j < n; j++ {
				col := a[j*lda : j*lda+m]
				var sum float64
				for i, v := range col {
					sum += v * xx[i]
				}
				y[iy] += alpha * sum
				iy += incY
			}
			return
		}
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

// Dsymv computes y := alpha*A*x + beta*y where A is an n×n symmetric matrix
// of which only the triangle selected by uplo is referenced.
func Dsymv(uplo Uplo, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("dsymv", n, n, a, lda)
	checkVector("dsymv", n, x, incX)
	checkVector("dsymv", n, y, incY)
	if n == 0 {
		return
	}
	if beta != 1 {
		if beta == 0 {
			iy := startIdx(n, incY)
			for i := 0; i < n; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			Dscal(n, beta, y, incY)
		}
	}
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
	// Each stored column j contributes an axpy into y (the column itself)
	// and a dot product against x (its mirrored row). The inner loops are
	// unrolled four ways with two independent partial sums so the fused
	// multiply chains do not serialize on a single accumulator.
	switch uplo {
	case Lower:
		for j := 0; j < n; j++ {
			t := alpha * x[j]
			col := a[j*lda:]
			y[j] += t * col[j]
			var s0, s1 float64
			i := j + 1
			for ; i+3 < n; i += 4 {
				v0, v1, v2, v3 := col[i], col[i+1], col[i+2], col[i+3]
				y[i] += t * v0
				y[i+1] += t * v1
				y[i+2] += t * v2
				y[i+3] += t * v3
				s0 += v0*x[i] + v1*x[i+1]
				s1 += v2*x[i+2] + v3*x[i+3]
			}
			for ; i < n; i++ {
				v := col[i]
				y[i] += t * v
				s0 += v * x[i]
			}
			y[j] += alpha * (s0 + s1)
		}
	case Upper:
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
	default:
		panic(badParam("dsymv", "uplo"))
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

// Dger computes the rank-1 update A := alpha*x*yᵀ + A for an m×n matrix A.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("dger", m, n, a, lda)
	checkVector("dger", m, x, incX)
	checkVector("dger", n, y, incY)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	iy := startIdx(n, incY)
	for j := 0; j < n; j++ {
		t := alpha * y[iy]
		iy += incY
		if t != 0 {
			col := a[j*lda : j*lda+m]
			if incX == 1 {
				for i := range col {
					col[i] += t * x[i]
				}
			} else {
				ix := startIdx(m, incX)
				for i := range col {
					col[i] += t * x[ix]
					ix += incX
				}
			}
		}
	}
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
