// Package testmat generates the symmetric test matrices used by the test
// suite, the examples and the benchmark harness, and provides the
// first-principles verification the reproduction is validated against.
// Check is the one eigen-checker: ascending values, then the residual and
// orthogonality of the vectors, or the trace and Frobenius invariants of a
// full values-only spectrum, each scored in units of n·ε·‖A‖_F (n·ε for
// orthogonality) on A and λ pre-scaled by the power of two that brings
// max|aᵢⱼ| into [1, 2), so that no score overflows or underflows with A.
// SpectrumError scores two spectra against each other the same way.
package testmat

import (
	"fmt"
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

// eps is the ε of every score: the spacing of the float64s at 1.
const eps = 0x1p-52

// scaled returns 2^k·A and k, for the k that brings max|aᵢⱼ| into [1, 2).
// Multiplying by a power of two is exact (short of the subnormal range), so a
// score computed on the copy is A's, without ‖A‖_F overflowing near 1e307 or
// the squares it sums underflowing near 1e-305.
func scaled(a *matrix.Dense) (*matrix.Dense, int) {
	_, exp := math.Frexp(a.MaxAbs())
	as := matrix.NewDense(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			as.Data[i+j*as.Stride] = math.Ldexp(a.Data[i+j*a.Stride], 1-exp)
		}
	}
	return as, 1 - exp
}

// normF is ‖A‖_F, or 1 for a zero matrix, so that it can divide.
func normF(a *matrix.Dense) float64 {
	if f := a.FrobeniusNorm(); f != 0 {
		return f
	}
	return 1
}

// worse is max, except that a NaN (a failed computation) sticks.
func worse(w, v float64) float64 {
	if math.IsNaN(w) || v <= w {
		return w
	}
	return v
}

// Residual returns max_k ‖A·z_k − λ_k·z_k‖₂ / (‖A‖_F·n·ε) — the normalized
// eigenpair residual; values of order 1–100 indicate full backward
// stability. It is computed on A and λ pre-scaled by a power of two, so it
// does not depend on the scale of A.
func Residual(a *matrix.Dense, vals []float64, z *matrix.Dense) float64 {
	as, k := scaled(a)
	return residual(as, k, vals, z)
}

// residual is Residual for A already scaled by 2^k.
func residual(a *matrix.Dense, k int, vals []float64, z *matrix.Dense) float64 {
	n := a.Rows
	var worst float64
	r := make([]float64, n)
	for j := 0; j < z.Cols; j++ {
		zj := z.Data[j*z.Stride : j*z.Stride+n]
		blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, zj, 1, 0, r, 1)
		blas.Daxpy(n, -math.Ldexp(vals[j], k), zj, 1, r, 1)
		worst = worse(worst, blas.Dnrm2(n, r, 1))
	}
	return worst / (normF(a) * float64(n) * eps)
}

// OrthoError returns ‖ZᵀZ − I‖_max / (n·ε), normalized like Residual.
func OrthoError(z *matrix.Dense) float64 {
	n, k := z.Rows, z.Cols
	var worst float64
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			dot := blas.Ddot(n, z.Data[a*z.Stride:], 1, z.Data[b*z.Stride:], 1)
			want := 0.0
			if a == b {
				want = 1
			}
			worst = worse(worst, math.Abs(dot-want))
		}
	}
	return worst / (float64(n) * eps)
}

// Scores are the errors Check measured, each of order one for a backward
// stable result: the residual and the invariants in units of n·ε·‖A‖_F,
// orthogonality in units of n·ε. A check that did not run scores 0.
type Scores struct {
	Residual, Ortho, Invariant float64
}

// CheckError is a failed Check: the property that failed, its score and the
// bound the score had to meet.
type CheckError struct {
	Kind         string // "order", "residual", "orthogonality" or "invariant"
	Score, Bound float64
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("testmat: %s score %.3g exceeds %.3g", e.Kind, e.Score, e.Bound)
}

// judge returns a *CheckError unless score ≤ bound, so a NaN score fails.
func judge(kind string, score, bound float64) error {
	if score <= bound {
		return nil
	}
	return &CheckError{Kind: kind, Score: score, Bound: bound}
}

// Check verifies the eigenvalues vals of the symmetric matrix a, with their
// eigenvectors in the columns of z when z is not nil, from first principles.
// The values must ascend (an "order" score is the descent, against a bound
// of 0). With vectors, Residual and OrthoError must each be at most tol.
// Without, a full spectrum must keep the trace to tol·n·ε·‖A‖_F and ‖A‖_F²
// to tol·n·ε·‖A‖_F²; a sub-range has no invariant to check. A and the values
// are pre-scaled by the power of two that brings max|aᵢⱼ| into [1, 2), so no
// score depends on the scale of A. The first failure is a *CheckError.
func Check(a *matrix.Dense, vals []float64, z *matrix.Dense, tol float64) (Scores, error) {
	var sc Scores
	n := a.Rows
	if z != nil && (z.Rows != n || z.Cols != len(vals)) {
		return sc, fmt.Errorf("testmat: %d×%d vectors for n = %d and %d values", z.Rows, z.Cols, n, len(vals))
	}
	if n == 0 {
		return sc, nil
	}
	as, k := scaled(a)
	unit := normF(as) * float64(n) * eps
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] <= vals[i]) {
			return sc, &CheckError{Kind: "order", Score: (math.Ldexp(vals[i-1], k) - math.Ldexp(vals[i], k)) / unit}
		}
	}
	if z != nil {
		sc.Residual, sc.Ortho = residual(as, k, vals, z), OrthoError(z)
		if err := judge("residual", sc.Residual, tol); err != nil {
			return sc, err
		}
		return sc, judge("orthogonality", sc.Ortho, tol)
	}
	if len(vals) != n {
		return sc, nil
	}
	var tr, sum, sumSq float64
	for i := 0; i < n; i++ {
		tr += as.At(i, i)
	}
	for _, v := range vals {
		v = math.Ldexp(v, k)
		sum += v
		sumSq += v * v
	}
	fro := as.FrobeniusNorm()
	sc.Invariant = math.Max(math.Abs(sum-tr)/unit, math.Abs(sumSq-fro*fro)/(unit*normF(as)))
	return sc, judge("invariant", sc.Invariant, tol)
}

// SpectrumError returns max_i |got_i − want_i| / (‖want‖·n·ε) for two
// ascending spectra of equal length. It divides by ‖want‖ first, so spectra
// near the overflow or underflow threshold score like their unit-scale
// copies. Two empty spectra score 0.
func SpectrumError(got, want []float64) float64 {
	if len(want) == 0 {
		return 0
	}
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
		worst = worse(worst, math.Abs(got[i]-want[i]))
	}
	return worst / norm / (float64(len(want)) * eps)
}
