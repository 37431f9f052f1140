package blas

import "math"

// Ddot returns the dot product xᵀy of two strided n-vectors. Unit strides run
// the dot kernel (level_kernels.go gives its summation order).
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	checkVector("ddot", n, x, incX)
	checkVector("ddot", n, y, incY)
	if n == 0 {
		return 0
	}
	if incX == 1 && incY == 1 {
		return dot(n, x, y)
	}
	var sum float64
	ix, iy := startIdx(n, incX), startIdx(n, incY)
	for i := 0; i < n; i++ {
		sum += x[ix] * y[iy]
		ix += incX
		iy += incY
	}
	return sum
}

// Daxpy computes y := alpha*x + y for strided n-vectors.
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	checkVector("daxpy", n, x, incX)
	checkVector("daxpy", n, y, incY)
	if n == 0 || alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 {
		axpy(n, alpha, x, y)
		return
	}
	ix, iy := startIdx(n, incX), startIdx(n, incY)
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
}

// Dscal computes x := alpha*x for a strided n-vector.
func Dscal(n int, alpha float64, x []float64, incX int) {
	checkVector("dscal", n, x, incX)
	if n == 0 {
		return
	}
	if incX == 1 {
		for i := range x[:n] {
			x[i] *= alpha
		}
		return
	}
	ix := startIdx(n, incX)
	for i := 0; i < n; i++ {
		x[ix] *= alpha
		ix += incX
	}
}

// Dnrm2 returns the Euclidean norm of a strided n-vector, computed with
// scaling to avoid overflow and underflow, as in the reference BLAS.
func Dnrm2(n int, x []float64, incX int) float64 {
	checkVector("dnrm2", n, x, incX)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return math.Abs(x[startIdx(n, incX)])
	}
	scale, ssq := 0.0, 1.0
	ix := startIdx(n, incX)
	for i := 0; i < n; i++ {
		v := x[ix]
		ix += incX
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// startIdx returns the starting offset for a strided vector, matching the
// BLAS convention that negative increments traverse from the far end.
func startIdx(n, inc int) int {
	if inc >= 0 {
		return 0
	}
	return (n - 1) * (-inc)
}
