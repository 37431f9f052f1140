// Package testmat generates the symmetric test matrices used by the test
// suite, the examples and the benchmark harness, and provides the
// first-principles verification metrics (residuals, orthogonality,
// planted-spectrum error) the reproduction is validated against.
package testmat

import (
	"math"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
)

// RandomSym returns an n×n symmetric matrix with N(0,1) entries.
func RandomSym(rng *rand.Rand, n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// RandomSymBand returns an n×n symmetric band matrix of bandwidth kd with
// N(0,1) entries inside the band — the pre-banded inputs the stage-2 bulge
// chase is property-tested on.
func RandomSymBand(rng *rand.Rand, n, kd int) *matrix.SymBand {
	b := matrix.NewSymBand(n, kd)
	for j := 0; j < n; j++ {
		for i := j; i <= min(n-1, j+kd); i++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	return b
}

// DiagDominantSymBand returns an n×n symmetric band matrix of bandwidth kd
// with N(0,1) off-diagonals and diagonal entries pushed past the row sum, so
// the matrix is strictly diagonally dominant: positive definite, well
// conditioned, with eigenvalues near the diagonal — a benign counterpart to
// RandomSymBand for property tests that want a controlled spectrum.
func DiagDominantSymBand(rng *rand.Rand, n, kd int) *matrix.SymBand {
	b := RandomSymBand(rng, n, kd)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := max(0, i-kd); j <= min(n-1, i+kd); j++ {
			if j != i {
				sum += math.Abs(b.At(i, j))
			}
		}
		b.Set(i, i, sum+1+rng.Float64())
	}
	return b
}

// WithSpectrum builds A = Q·diag(spec)·Qᵀ for a Haar-ish random orthogonal Q
// (product of n random Householder reflectors), so the exact eigenvalues of
// the result are known. Returns the matrix; the planted spectrum is the
// sorted copy of spec.
func WithSpectrum(rng *rand.Rand, spec []float64) *matrix.Dense {
	n := len(spec)
	a := matrix.NewDense(n, n)
	for i, v := range spec {
		a.Set(i, i, v)
	}
	work := make([]float64, n)
	v := make([]float64, n)
	for k := 0; k < n; k++ {
		// Random reflector H = I − τ·v·vᵀ with τ = 2/‖v‖².
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		tau := 2 / blas.Ddot(n, v, 1, v, 1)
		// A := H·A·H.
		householder.Larf(blas.Left, n, n, v, 1, tau, a.Data, a.Stride, work)
		householder.Larf(blas.Right, n, n, v, 1, tau, a.Data, a.Stride, work)
	}
	a.Symmetrize() // remove roundoff asymmetry
	return a
}

// UniformSpectrum returns n values equally spaced in [lo, hi].
func UniformSpectrum(n int, lo, hi float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if n == 1 {
			s[i] = lo
			continue
		}
		s[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return s
}

// GeometricSpectrum returns n values lo·r^i reaching hi at i = n−1 — a
// wide-dynamic-range spectrum that stresses deflation and bisection.
func GeometricSpectrum(n int, lo, hi float64) []float64 {
	s := make([]float64, n)
	if n == 1 {
		s[0] = lo
		return s
	}
	r := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range s {
		s[i] = v
		v *= r
	}
	return s
}

// ClusteredSpectrum returns n values in k tight clusters — the classic
// stress test for deflation (D&C) and reorthogonalization (inverse
// iteration).
func ClusteredSpectrum(n, k int, spread float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		c := i % k
		s[i] = float64(c+1) + spread*float64(i/k)
	}
	return s
}

// Wilkinson returns the Wilkinson matrix W⁺ of odd order n as a dense
// matrix: tridiagonal, |i − (n−1)/2| on the diagonal, ones beside it. Its
// larger eigenvalues come in pairs that agree to many digits without being
// equal — the classic test of deflation (D&C) and of reorthogonalization
// (inverse iteration).
func Wilkinson(n int) *matrix.Dense { return GluedWilkinson(n, 1, 0) }

// GluedWilkinson returns copies of W⁺ of order m along the diagonal, each
// coupled to the next by the off-diagonal entry glue. With glue near
// √ε·‖W‖ every eigenvalue of W⁺ becomes a cluster of `copies` eigenvalues
// whose vectors are spread over all the blocks: the matrix the LAPACK
// testers use against eigenvectors computed cluster by cluster.
func GluedWilkinson(m, copies int, glue float64) *matrix.Dense {
	n := m * copies
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Abs(float64(i%m-(m-1)/2)))
		if i+1 < n {
			off := 1.0
			if (i+1)%m == 0 {
				off = glue
			}
			a.Set(i, i+1, off)
			a.Set(i+1, i, off)
		}
	}
	return a
}

// GraphLaplacian returns the Laplacian of a random undirected graph with n
// vertices and average degree deg — the workload of the spectral-clustering
// example. Always symmetric positive semidefinite.
func GraphLaplacian(rng *rand.Rand, n int, deg float64) *matrix.Dense {
	a := matrix.NewDense(n, n)
	p := deg / float64(n-1)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if rng.Float64() < p {
				a.Set(i, j, -1)
				a.Set(j, i, -1)
			}
		}
	}
	for i := 0; i < n; i++ {
		var d float64
		for j := 0; j < n; j++ {
			if i != j {
				d -= a.At(i, j)
			}
		}
		a.Set(i, i, d)
	}
	return a
}

// Residual returns max_k ‖A·z_k − λ_k·z_k‖₂ / (‖A‖_F·n·ε) — the normalized
// eigenpair residual; values of order 1–100 indicate full backward
// stability.
func Residual(a *matrix.Dense, vals []float64, z *matrix.Dense) float64 {
	n := a.Rows
	norm := a.FrobeniusNorm()
	if norm == 0 {
		norm = 1
	}
	eps := 0x1p-52
	var worst float64
	r := make([]float64, n)
	for k := 0; k < z.Cols; k++ {
		zk := z.Data[k*z.Stride : k*z.Stride+n]
		blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, zk, 1, 0, r, 1)
		blas.Daxpy(n, -vals[k], zk, 1, r, 1)
		if res := blas.Dnrm2(n, r, 1); res > worst {
			worst = res
		}
	}
	return worst / (norm * float64(n) * eps)
}

// OrthoError returns ‖ZᵀZ − I‖_max / (n·ε), normalized like Residual.
func OrthoError(z *matrix.Dense) float64 {
	n, k := z.Rows, z.Cols
	eps := 0x1p-52
	var worst float64
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			dot := blas.Ddot(n, z.Data[a*z.Stride:], 1, z.Data[b*z.Stride:], 1)
			want := 0.0
			if a == b {
				want = 1
			}
			if d := math.Abs(dot - want); d > worst {
				worst = d
			}
		}
	}
	return worst / (float64(n) * eps)
}

// SpectrumError returns max_i |got_i − want_i| / (‖want‖·n·ε) for two
// ascending spectra of equal length. It divides by ‖want‖ first, so spectra
// near the overflow or underflow threshold score like their unit-scale
// copies.
func SpectrumError(got, want []float64) float64 {
	eps := 0x1p-52
	var norm, worst float64
	for i := range want {
		if a := math.Abs(want[i]); a > norm {
			norm = a
		}
	}
	if norm == 0 {
		norm = 1
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	return worst / norm / (float64(len(want)) * eps)
}
