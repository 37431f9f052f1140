package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitwiseEqual compares two float slices for exact bit equality (so that
// -0.0 vs 0.0 or differently-rounded results fail, not just large drifts).
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLookaheadSolverBitwise is the solver-level half of the stage-1
// look-ahead gate (the DAG-level half lives in internal/band): for both solve
// shapes — full Eig (vectors) and values-only EigValues — every worker count
// and every look-ahead depth must produce results bitwise identical to the
// sequential solve (stage 1 inline, in submission order). The look-ahead
// priorities only reorder the scheduler's ready queue; they never change
// which floating-point operations run or in what per-tile order.
func TestLookaheadSolverBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 48
	a := randSymMatrix(rng, n)

	ref, err := Eig(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	refVals, err := EigValues(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, opts *Options) {
		t.Helper()
		res, err := Eig(a, opts)
		if err != nil {
			t.Fatalf("%s: Eig: %v", label, err)
		}
		if !bitwiseEqual(ref.Values, res.Values) {
			t.Fatalf("%s: eigenvalues differ from sequential reference", label)
		}
		if !bitwiseEqual(ref.Vectors.data, res.Vectors.data) {
			t.Fatalf("%s: eigenvectors differ from sequential reference", label)
		}
		vals, err := EigValues(a, opts)
		if err != nil {
			t.Fatalf("%s: EigValues: %v", label, err)
		}
		if !bitwiseEqual(refVals, vals) {
			t.Fatalf("%s: values-only solve differs from sequential reference", label)
		}
	}

	for _, w := range []int{1, 2, 4, 7} {
		for _, d := range []int{1, 2, 4} {
			check(fmt.Sprintf("workers=%d depth=%d", w, d),
				&Options{NB: 8, Workers: w, LookaheadDepth: d})
		}
	}
}

// TestLookaheadDepthNormalize pins the Options-level contract of the depth
// knob: negative depths normalize to 0 ("use the default"), and an absurdly
// large depth is clamped inside stage 1 rather than rejected — the solve
// still succeeds and still matches the sequential reference bitwise.
func TestLookaheadDepthNormalize(t *testing.T) {
	o := &Options{LookaheadDepth: -5}
	o.normalize()
	if o.LookaheadDepth != 0 {
		t.Fatalf("negative LookaheadDepth normalized to %d, want 0", o.LookaheadDepth)
	}

	rng := rand.New(rand.NewSource(8))
	a := randSymMatrix(rng, 32)
	ref, err := Eig(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{-9, 1 << 30} {
		res, err := Eig(a, &Options{NB: 8, Workers: 3, LookaheadDepth: d})
		if err != nil {
			t.Fatalf("depth=%d: %v", d, err)
		}
		if !bitwiseEqual(ref.Values, res.Values) || !bitwiseEqual(ref.Vectors.data, res.Vectors.data) {
			t.Fatalf("depth=%d: result differs from sequential reference", d)
		}
	}
}
