package main

import (
	"fmt"
	"math"

	eigen "repro"
	"repro/internal/matrix"
	"repro/internal/testmat"
)

// checkTol is the acceptance threshold of every scaled check: an error of
// checkTol·n·ε·‖A‖ is still backward stable, more is a wrong answer.
const checkTol = 50

// result is one operation's output in the form all workloads share.
type result struct {
	vals []float64
	vecs *eigen.Matrix // nil for a values-only operation
}

// flat copies the result into one slice, values first, then the vectors in
// column-major order: the form repetitions are compared against bit by bit.
func (r result) flat() []float64 {
	out := append([]float64(nil), r.vals...)
	if r.vecs != nil {
		_, cols := r.vecs.Dims()
		for j := 0; j < cols; j++ {
			out = append(out, r.vecs.Col(j)...)
		}
	}
	return out
}

// sameBits reports whether r equals the flattened reference bit for bit
// (so NaN payloads and the sign of zero count).
func sameBits(ref []float64, r result) bool {
	if len(ref) < len(r.vals) {
		return false
	}
	for i, v := range r.vals {
		if math.Float64bits(v) != math.Float64bits(ref[i]) {
			return false
		}
	}
	ref = ref[len(r.vals):]
	if r.vecs == nil {
		return len(ref) == 0
	}
	rows, cols := r.vecs.Dims()
	if len(ref) != rows*cols {
		return false
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if math.Float64bits(r.vecs.At(i, j)) != math.Float64bits(ref[i+j*rows]) {
				return false
			}
		}
	}
	return true
}

// checker verifies results from first principles and keeps the worst scaled
// error of each kind seen in the run (the check.* metrics).
type checker struct {
	residual, ortho, invariant float64
}

// verify checks one result of the symmetric matrix a, given as its values
// and its vectors in column-major order (empty for a values-only result):
// ascending values, and either eigenpair residual and orthogonality or, for
// a full values-only spectrum, the trace and Frobenius invariants.
func (c *checker) verify(a *matrix.Dense, vals, vecs []float64) error {
	n := a.Rows
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] <= vals[i]) {
			return fmt.Errorf("eigenvalues not ascending at %d: %g > %g", i, vals[i-1], vals[i])
		}
	}
	if len(vecs) > 0 {
		if len(vecs) != n*len(vals) {
			return fmt.Errorf("%d vector entries for n=%d and %d values", len(vecs), n, len(vals))
		}
		z := matrix.NewDenseFrom(n, len(vals), max(1, n), vecs)
		res, orth := testmat.Residual(a, vals, z), testmat.OrthoError(z)
		c.residual, c.ortho = worse(c.residual, res), worse(c.ortho, orth)
		if !(res <= checkTol) || !(orth <= checkTol) {
			return fmt.Errorf("residual %.3g / orthogonality %.3g exceed %d·n·ε·‖A‖", res, orth, checkTol)
		}
		return nil
	}
	if len(vals) != n {
		return nil // a values-only sub-range has no invariant to check
	}
	var tr, sum, sumSq float64
	for i := 0; i < n; i++ {
		tr += a.At(i, i)
	}
	for _, v := range vals {
		sum += v
		sumSq += v * v
	}
	fro := a.FrobeniusNorm()
	if fro == 0 {
		fro = 1
	}
	scale := float64(n) * 0x1p-52
	inv := math.Max(math.Abs(sum-tr)/(scale*fro), math.Abs(sumSq-fro*fro)/(scale*fro*fro))
	c.invariant = worse(c.invariant, inv)
	if !(inv <= checkTol) {
		return fmt.Errorf("trace/Frobenius invariant off by %.3g·n·ε·‖A‖", inv)
	}
	return nil
}

// worse is max, except that a NaN (a failed check) sticks.
func worse(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Max(a, b)
}
