package blas

import "math"

// Ddot returns the dot product xᵀy of two strided n-vectors.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	checkVector("ddot", n, x, incX)
	checkVector("ddot", n, y, incY)
	if n == 0 {
		return 0
	}
	if incX == 1 && incY == 1 {
		var sum float64
		for i, v := range x[:n] {
			sum += v * y[i]
		}
		return sum
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
		for i, v := range x[:n] {
			y[i] += alpha * v
		}
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

// Dswap exchanges x and y for strided n-vectors.
func Dswap(n int, x []float64, incX int, y []float64, incY int) {
	checkVector("dswap", n, x, incX)
	checkVector("dswap", n, y, incY)
	ix, iy := startIdx(n, incX), startIdx(n, incY)
	for i := 0; i < n; i++ {
		x[ix], y[iy] = y[iy], x[ix]
		ix += incX
		iy += incY
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

// Dasum returns the sum of absolute values of a strided n-vector.
func Dasum(n int, x []float64, incX int) float64 {
	checkVector("dasum", n, x, incX)
	var sum float64
	ix := startIdx(n, incX)
	for i := 0; i < n; i++ {
		sum += math.Abs(x[ix])
		ix += incX
	}
	return sum
}

// Idamax returns the index of the element with the largest absolute value of
// a strided n-vector, or -1 if n == 0.
func Idamax(n int, x []float64, incX int) int {
	checkVector("idamax", n, x, incX)
	if n == 0 {
		return -1
	}
	best, bestIdx := math.Abs(x[startIdx(n, incX)]), 0
	ix := startIdx(n, incX)
	for i := 0; i < n; i++ {
		if av := math.Abs(x[ix]); av > best {
			best, bestIdx = av, i
		}
		ix += incX
	}
	return bestIdx
}

// Drot applies a plane rotation: (x, y) := (c*x + s*y, c*y - s*x).
func Drot(n int, x []float64, incX int, y []float64, incY int, c, s float64) {
	checkVector("drot", n, x, incX)
	checkVector("drot", n, y, incY)
	ix, iy := startIdx(n, incX), startIdx(n, incY)
	for i := 0; i < n; i++ {
		xv, yv := x[ix], y[iy]
		x[ix] = c*xv + s*yv
		y[iy] = c*yv - s*xv
		ix += incX
		iy += incY
	}
}

// startIdx returns the starting offset for a strided vector, matching the
// BLAS convention that negative increments traverse from the far end.
func startIdx(n, inc int) int {
	if inc >= 0 {
		return 0
	}
	return (n - 1) * (-inc)
}
