package tridiag

import (
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// steinScales computes the cluster separation threshold (10⁻³·‖T‖₁) and the
// perturbation scale eps3 used for repeated eigenvalues and zero pivots.
func steinScales(d, e []float64) (ortol, eps3 float64) {
	n := len(d)
	onenrm := math.Abs(d[0]) + math.Abs(e[0])
	for i := 1; i < n; i++ {
		t := math.Abs(d[i])
		if i > 0 {
			t += math.Abs(e[i-1])
		}
		if i < n-1 {
			t += math.Abs(e[i])
		}
		if t > onenrm {
			onenrm = t
		}
	}
	return 1e-3 * onenrm, Eps * onenrm
}

// steinClusterEnd returns the end (exclusive) of the reorthogonalization
// cluster starting at cs: consecutive eigenvalues closer than ortol.
func steinClusterEnd(w []float64, cs int, ortol float64) int {
	ce := cs + 1
	for ce < len(w) && w[ce]-w[ce-1] < ortol {
		ce++
	}
	return ce
}

// steinSeed derives the deterministic start-vector seed of the cluster
// beginning at eigenvalue index cs. Seeding per cluster (rather than
// advancing one stream across all eigenvalues) makes each cluster's
// computation self-contained, which is what lets SteinSched run clusters
// concurrently with results bitwise identical to the sequential loop.
func steinSeed(cs int) uint64 {
	return 0x9E3779B97F4A7C15 ^ (uint64(cs+1) * 0xBF58476D1CE4E5B9)
}

// steinCluster runs inverse iteration for eigenvalues [cs, ce), writing
// columns cs..ce-1 of z. Clusters touch disjoint columns, read only (d, e,
// w) and their own columns during MGS, and use a cluster-local PRNG, so
// distinct clusters are fully independent. Scratch is wk's. Returns
// ErrNoConvergence if reorthogonalization repeatedly annihilates an iterate.
func steinCluster(d, e, w []float64, z *matrix.Dense, cs, ce int, eps3 float64, wk *Work) error {
	n := len(d)
	// LU workspace for (T − λI) with partial pivoting: sub, diag, super,
	// super2 (fill-in), pivot flags, and the iterate.
	lu := grown(&wk.lu, 5*n)
	clear(lu)
	sub, diag, sup, sup2, x := lu[:n], lu[n:2*n], lu[2*n:3*n], lu[3*n:4*n], lu[4*n:]
	swapped := wk.swappedBuf(n)

	rng := xorshift{s: steinSeed(cs) | 1}
	for j := cs; j < ce; j++ {
		// Perturb repeated eigenvalues slightly so the factorizations
		// differ (as DSTEIN does); j == cs adds exactly zero.
		lambda := w[j] + float64(j-cs)*eps3

		// Random start vector; the factorization is shift-dependent only,
		// so compute it once per eigenvalue.
		for i := 0; i < n; i++ {
			x[i] = rng.normLike()
		}
		luTridiag(d, e, lambda, sub, diag, sup, sup2, swapped, eps3)

		restarts := 0
		for iter := 0; iter < 5; iter++ {
			solveLU(n, sub, diag, sup, sup2, swapped, x)
			// Reorthogonalize against previously computed vectors of the
			// same cluster.
			for c := cs; c < j; c++ {
				col := z.Data[c*z.Stride : c*z.Stride+n]
				dot := blas.Ddot(n, x, 1, col, 1)
				blas.Daxpy(n, -dot, col, 1, x, 1)
			}
			nrm := blas.Dnrm2(n, x, 1)
			if nrm == 0 {
				// Orthogonalization annihilated the iterate; restart with a
				// fresh random vector.
				if restarts++; restarts > maxSteinRestarts {
					return ErrNoConvergence
				}
				for i := 0; i < n; i++ {
					x[i] = rng.normLike()
				}
				iter = -1
				continue
			}
			blas.Dscal(n, 1/nrm, x, 1)
		}
		copy(z.Data[j*z.Stride:j*z.Stride+n], x)
	}
	return nil
}

// steinClusterFlops is the coarse attribution model of one cluster: per
// eigenvalue, the LU factorization and five solves (≈8n each) plus the MGS
// sweeps against the cluster's earlier columns (≈4n per column per sweep).
func steinClusterFlops(n, cs, ce int) int64 {
	span := int64(ce - cs)
	mgs := span * (span - 1) / 2 * 5 * 4 * int64(n)
	return span*48*int64(n) + mgs
}

// luTridiag factors T − λI with partial pivoting. The factors are stored in
// (sub, diag, sup, sup2); swapped[i] records whether rows i and i+1 were
// exchanged at step i. Zero pivots are replaced by ±eps3 so the subsequent
// solve never divides by zero (this is the standard inverse-iteration
// safeguard: the perturbation is below the eigenvalue error anyway).
func luTridiag(d, e []float64, lambda float64, sub, diag, sup, sup2 []float64, swapped []bool, eps3 float64) {
	n := len(d)
	for i := 0; i < n; i++ {
		diag[i] = d[i] - lambda
		if i < n-1 {
			sup[i] = e[i]
			sub[i] = e[i]
		}
		sup2[i] = 0
	}
	for i := 0; i < n-1; i++ {
		if math.Abs(sub[i]) > math.Abs(diag[i]) {
			// Swap rows i and i+1.
			swapped[i] = true
			diag[i], sub[i] = sub[i], diag[i]
			sup[i], diag[i+1] = diag[i+1], sup[i]
			if i < n-2 {
				sup2[i], sup[i+1] = sup[i+1], 0
			}
		} else {
			swapped[i] = false
		}
		if diag[i] == 0 {
			diag[i] = eps3
		}
		m := sub[i] / diag[i]
		sub[i] = m // store multiplier
		diag[i+1] -= m * sup[i]
		if i < n-2 {
			sup[i+1] -= m * sup2[i]
		}
	}
	if diag[n-1] == 0 {
		diag[n-1] = eps3
	}
}

// solveLU solves the factored system in place on b: forward elimination with
// the recorded row swaps, then back substitution through the two
// superdiagonals.
func solveLU(n int, sub, diag, sup, sup2 []float64, swapped []bool, b []float64) {
	for i := 0; i < n-1; i++ {
		if swapped[i] {
			b[i], b[i+1] = b[i+1], b[i]
		}
		b[i+1] -= sub[i] * b[i]
	}
	b[n-1] /= diag[n-1]
	if n >= 2 {
		b[n-2] = (b[n-2] - sup[n-2]*b[n-1]) / diag[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		b[i] = (b[i] - sup[i]*b[i+1] - sup2[i]*b[i+2]) / diag[i]
	}
}

// xorshift is a tiny deterministic PRNG so SteinSched does not depend on
// math/rand ordering; inverse iteration only needs a start vector that is
// not orthogonal to the target eigenvector.
type xorshift struct{ s uint64 }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// normLike returns a roughly zero-mean value in [−1, 1).
func (x *xorshift) normLike() float64 {
	return float64(int64(x.next()))/(1<<63)*0.5 + float64(int64(x.next()))/(1<<63)*0.5
}
