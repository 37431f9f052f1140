// Package tridiag implements the symmetric tridiagonal eigensolvers that
// form phase 2 ("Eig of T") of the full eigensolver, one entry point per
// method:
//
//   - Sterf: eigenvalues only, implicit QL/QR iteration.
//   - Steqr: eigenvalues and eigenvectors by implicit QL/QR iteration with
//     accumulated Givens rotations (the "EV/QR" method of the paper's
//     Table 1, ≈6n³ when vectors are accumulated).
//   - StedcSched: Cuppen's divide & conquer with Gu–Eisenstat deflation and
//     a secular-equation solver (the "EVD/D&C" method, 4/3…8/3·n³).
//   - StebzSched/SteinSched: bisection eigenvalues plus inverse-iteration
//     vectors with cluster reorthogonalization; supports computing only a
//     subset (the fraction f of Eqs. 4–5), our stand-in for MRRR ("EVR"):
//     both are O(n²) with subset capability, the property the paper's
//     analysis uses (DESIGN.md has the substitution rationale).
//
// The *Sched solvers run over a scheduler job, or inline on a nil one
// (par.go); all but Sterf draw scratch from a WorkSet. All solvers return
// eigenvalues in ascending order.
package tridiag

import (
	"errors"
	"math"
)

// Eps is the double-precision machine epsilon (unit roundoff ulp of 1.0).
const Eps = 0x1p-52

// ErrNoConvergence is returned when an iterative solver exceeds its
// iteration budget, which for these algorithms indicates a logic error or a
// pathological matrix rather than an expected runtime condition.
var ErrNoConvergence = errors.New("tridiag: eigenvalue iteration did not converge")

// MaxIterQL is the per-eigenvalue iteration budget of the implicit QL/QR
// solvers (Sterf, Steqr and the D&C base case). The default matches EISPACK
// practice and is far above what any matrix needs; it is a variable rather
// than a constant so tests can shrink it to force the ErrNoConvergence path
// deterministically (a diagonal matrix still converges with a budget of 0,
// so per-problem failure injection is possible even though the knob is
// package-global).
var MaxIterQL = 80

// maxSteinRestarts bounds how many times one inverse-iteration vector may be
// restarted with a fresh random start after cluster reorthogonalization
// annihilates it (SteinSched's ErrNoConvergence trigger).
const maxSteinRestarts = 8

// maxAbsBound returns a Gershgorin-style bound on the spectral radius of the
// tridiagonal matrix (d, e): every eigenvalue lies in [-b, b].
func maxAbsBound(d, e []float64) float64 {
	n := len(d)
	var b float64
	for i := 0; i < n; i++ {
		r := math.Abs(d[i])
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		if r > b {
			b = r
		}
	}
	return b
}

// checkTE panics on inconsistent d/e lengths.
func checkTE(d, e []float64) {
	if len(d) > 0 && len(e) < len(d)-1 {
		panic("tridiag: e must have length at least len(d)-1")
	}
}
