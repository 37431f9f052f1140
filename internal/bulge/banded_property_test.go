// Property tests for the bulge chase on pre-banded inputs: for every tested
// bandwidth the chase must yield a tridiagonal whose eigensystem, pushed back
// through the recorded Q₂ diamonds, diagonalizes the original band matrix to
// residual scale. External test package so the real backtransform applier can
// be exercised (backtransform imports bulge, so an internal test would cycle).
package bulge_test

import (
	"math/rand"
	"testing"

	"repro/internal/backtransform"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/testmat"
	"repro/internal/tridiag"
)

// eigBand runs band → tridiagonal → eigensystem → back-transformation on b
// and returns the eigenvalues and the eigenvector matrix Z = Q₂·E.
func eigBand(t *testing.T, b *matrix.SymBand) ([]float64, *matrix.Dense) {
	t.Helper()
	res := bulge.Chase(b, nil, true, nil, nil)
	d := append([]float64(nil), res.T.D...)
	e := append([]float64(nil), res.T.E...)
	vals, z, err := tridiag.StedcSched(d, e, tridiag.NewWorkSet(1), nil, 0, nil)
	if err != nil {
		t.Fatalf("Stedc: %v", err)
	}
	plan := backtransform.NewPlan(res, 0, nil)
	plan.ApplyBlock(z, make([]float64, plan.Work()), nil)
	return vals, z
}

// residualBudget is the allowed normalized residual in units of n·ε·‖B‖
// (testmat.Residual's normalization); order 1–100 indicates full backward
// stability.
const residualBudget = 200

// TestChaseBandedResidual is the satellite property gate: the full
// band-eigensolve pipeline at bandwidths {4, 8, 16, 32} on testmat's band
// generators must pass the first-principles metrics — ‖B·Z − Z·Λ‖ at
// residual scale and ZᵀZ = I to machine scale.
func TestChaseBandedResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kd := range []int{4, 8, 16, 32} {
		for _, n := range []int{3*kd + 5, 4 * kd} {
			for _, gen := range []struct {
				name string
				mk   func(*rand.Rand, int, int) *matrix.SymBand
			}{
				{"random", testmat.RandomSymBand},
				{"diagdominant", testmat.DiagDominantSymBand},
			} {
				b := gen.mk(rng, n, kd)
				vals, z := eigBand(t, b)
				if res := testmat.Residual(b.ToDense(), vals, z); res > residualBudget {
					t.Errorf("%s n=%d kd=%d: residual %g", gen.name, n, kd, res)
				}
				if oe := testmat.OrthoError(z); oe > residualBudget {
					t.Errorf("%s n=%d kd=%d: orthogonality error %g", gen.name, n, kd, oe)
				}
				for i := 1; i < n; i++ {
					if vals[i-1] > vals[i] {
						t.Fatalf("%s n=%d kd=%d: eigenvalues not sorted", gen.name, n, kd)
					}
				}
			}
		}
	}
}
