package blas

import "math"

// Ddot returns the dot product xᵀy of two n-vectors of unit stride, on the
// dot kernel (level_kernels.go gives its summation order).
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	checkVector("ddot", n, x, incX)
	checkVector("ddot", n, y, incY)
	checkUnit("ddot", incX, incY)
	return dot(n, x, y)
}

// Daxpy computes y := alpha*x + y for n-vectors: x of unit stride, y of any
// positive stride (Tsqrt updates a row of R).
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	checkVector("daxpy", n, x, incX)
	checkVector("daxpy", n, y, incY)
	checkUnit("daxpy", incX, 1)
	if n == 0 || alpha == 0 {
		return
	}
	if incY == 1 {
		axpy(n, alpha, x, y)
		return
	}
	iy := 0
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[i]
		iy += incY
	}
}

// Dscal computes x := alpha*x for an n-vector of unit stride.
func Dscal(n int, alpha float64, x []float64, incX int) {
	checkVector("dscal", n, x, incX)
	checkUnit("dscal", incX, 1)
	for i := range x[:n] {
		x[i] *= alpha
	}
}

// Dnrm2 returns the Euclidean norm of an n-vector of unit stride, computed
// with scaling to avoid overflow and underflow, as in the reference BLAS.
func Dnrm2(n int, x []float64, incX int) float64 {
	checkVector("dnrm2", n, x, incX)
	checkUnit("dnrm2", incX, 1)
	scale, ssq := 0.0, 1.0
	for _, v := range x[:n] {
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
