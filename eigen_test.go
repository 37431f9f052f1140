package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
)

func randSymMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			m.SetSym(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestEigSmallKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMatrixFrom(2, []float64{2, 1, 1, 2})
	res, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-1) > 1e-12 || math.Abs(res.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", res.Values)
	}
	// Eigenvector for λ=1 is ±(1,-1)/√2.
	v := res.Vectors.Col(0)
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-12 || math.Abs(v[0]+v[1]) > 1e-12 {
		t.Fatalf("eigenvector %v", v)
	}
}

func TestEigResidualAllOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 40
	a := randSymMatrix(rng, n)
	for _, alg := range []Algorithm{TwoStage, OneStage} {
		for _, m := range []Method{DivideAndConquer, BisectionInverseIteration, QRIteration} {
			res, err := Eig(a, &Options{Algorithm: alg, Method: m, NB: 8})
			if err != nil {
				t.Fatalf("alg=%d method=%d: %v", alg, m, err)
			}
			if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
				t.Fatalf("alg=%d method=%d: %v", alg, m, err)
			}
		}
	}
}

// checkTol bounds every testmat.Check score in this package's tests, in
// units of n·ε·‖A‖.
const checkTol = 50

// asDense is m as the matrix.Dense that testmat.Check reads (nil for nil).
func asDense(m *Matrix) *matrix.Dense {
	if m == nil {
		return nil
	}
	return &matrix.Dense{Rows: m.r, Cols: m.c, Stride: max(1, m.r), Data: m.data}
}

func TestEigValuesMatchesEig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randSymMatrix(rng, 30)
	vals, err := EigValues(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(vals[i]-res.Values[i]) > 1e-10 {
			t.Fatalf("values-only mismatch at %d", i)
		}
	}
}

func TestEigRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := randSymMatrix(rng, n)
	full, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := EigRange(a, 6, 15, &Options{Method: BisectionInverseIteration})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Values) != 10 {
		t.Fatalf("range returned %d values", len(sub.Values))
	}
	for i := range sub.Values {
		if math.Abs(sub.Values[i]-full.Values[5+i]) > 1e-9 {
			t.Fatalf("range value %d: %g vs %g", i, sub.Values[i], full.Values[5+i])
		}
	}
	if _, err := testmat.Check(asDense(a), sub.Values, asDense(sub.Vectors), checkTol); err != nil {
		t.Fatal(err)
	}
	if _, err := EigRange(a, 0, 5, nil); err == nil {
		t.Fatal("invalid range accepted")
	}
	if vals, err := EigValuesRange(a, 1, 5, nil); err != nil || len(vals) != 5 {
		t.Fatalf("EigValuesRange: %v, %d values", err, len(vals))
	}
}

// TestInputsUntouched: every public solve leaves the caller's matrix bit for
// bit as it was — both pipelines, every method, full, values-only and range
// solves, sequential and scheduled, and a SolveBatch item. Stage 1 reads the
// caller's storage in place, so this is what keeps that read-only.
func TestInputsUntouched(t *testing.T) {
	n := 110 // three tiles at the default NB, a ragged last one
	a := randSymMatrix(rand.New(rand.NewSource(11)), n)
	orig := append([]float64(nil), a.data...)
	untouched := func(label string) {
		t.Helper()
		for i, v := range a.data {
			if math.Float64bits(v) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: input changed at %d", label, i)
			}
		}
	}
	for _, alg := range []Algorithm{TwoStage, OneStage} {
		for _, m := range []Method{DivideAndConquer, BisectionInverseIteration, QRIteration} {
			for _, w := range []int{1, 2} {
				o := &Options{Algorithm: alg, Method: m, Workers: w}
				label := fmt.Sprintf("algorithm=%d method=%d workers=%d", alg, m, w)
				if _, err := Eig(a, o); err != nil {
					t.Fatal(err)
				}
				untouched(label + " Eig")
				if _, err := EigValues(a, o); err != nil {
					t.Fatal(err)
				}
				untouched(label + " EigValues")
				if _, err := EigRange(a, 10, 40, o); err != nil {
					t.Fatal(err)
				}
				untouched(label + " EigRange")
			}
		}
	}
	s := NewSolver(&Options{Workers: 2})
	defer s.Close()
	if res := s.SolveBatch(context.Background(), []BatchItem{{A: a}}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	untouched("SolveBatch")
}

func TestEigRejectsNonSymmetric(t *testing.T) {
	a := NewMatrix(3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	if _, err := Eig(a, nil); err == nil {
		t.Fatal("non-symmetric matrix accepted")
	}

	// The tolerance's edge, in blocks on and off the diagonal and in either
	// worker's share of the input scan: |a_ij − a_ji| equal to symTol·max|a|
	// is accepted, the next float above it is not.
	rng := rand.New(rand.NewSource(14))
	for _, n := range scanSizes {
		for _, w := range []int{1, 2} {
			pairs := [][2]int{{n - 1, 0}, {n - 1, n - 2}, {n/2 + 1, n / 2}}
			a := unitSymMatrix(rng, n)
			for _, p := range pairs {
				a.Set(p[0], p[1], 0)
				a.Set(p[1], p[0], symTol)
			}
			if _, err := EigValues(a, &Options{Workers: w}); err != nil {
				t.Fatalf("n=%d W=%d: asymmetry of exactly symTol·max|a| rejected: %v", n, w, err)
			}
			for _, p := range pairs {
				a.Set(p[1], p[0], math.Nextafter(symTol, 1))
				_, err := Eig(a, &Options{Workers: w})
				if err == nil || errors.Is(err, ErrNotFinite) {
					t.Fatalf("n=%d W=%d pair %v: asymmetry one float above the tolerance: err=%v", n, w, p, err)
				}
				a.Set(p[1], p[0], symTol)
			}
		}
	}
}

// TestScanInputWorkersHeld: with both workers of a two-worker scheduler held
// by another job's gate tasks, the input scan's helper task cannot start, and
// scanInput must return on the caller alone, with the maxima of an inline
// scan, before the gate opens.
func TestScanInputWorkersHeld(t *testing.T) {
	n := 600
	a := unitSymMatrix(rand.New(rand.NewSource(15)), n)
	a.Set(n-1, n/2, a.At(n-1, n/2)+0.25) // an asymmetry in the helper's share
	wantAbs, wantAsym := scanInput(a.data, n, nil)
	s := sched.New(2)
	defer s.Shutdown()
	gate := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	hold := s.NewJob(nil)
	for range 2 {
		hold.Submit(sched.Task{Run: func(int) {
			running.Done()
			<-gate
		}})
	}
	running.Wait()
	got := make(chan [2]float64, 1)
	go func() {
		maxAbs, maxAsym := scanInput(a.data, n, s.NewJob(nil))
		got <- [2]float64{maxAbs, maxAsym}
	}()
	var m [2]float64
	select {
	case m = <-got:
	case <-time.After(5 * time.Second):
		close(gate)
		<-got
		t.Fatal("scanInput waited for a worker held by another job")
	}
	close(gate)
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	if m[0] != wantAbs || m[1] != wantAsym {
		t.Fatalf("scan with the workers held: max|a| %g, max asymmetry %g; inline scan %g, %g", m[0], m[1], wantAbs, wantAsym)
	}
}

// scanSizes are the orders the input-validation tests run at: one scan
// block, just under and over it, several blocks with a ragged edge, and a
// batch item's order large enough to be split across workers.
var scanSizes = []int{31, 32, 33, 97, 600}

// unitSymMatrix returns a symmetric matrix with max|a_ij| exactly 1, at
// (0, 0), and every other entry in (−1, 1).
func unitSymMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			m.SetSym(i, j, 2*rng.Float64()-1)
		}
	}
	m.Set(0, 0, 1)
	return m
}

func TestEigRejectsBadInput(t *testing.T) {
	if _, err := Eig(nil, nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
}

func TestEigParallelOption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSymMatrix(rng, 36)
	seq, err := Eig(a, &Options{NB: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Eig(a, &Options{NB: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Values {
		if seq.Values[i] != par.Values[i] {
			t.Fatal("parallel results differ from sequential")
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3)
	m.SetSym(0, 2, 5)
	if m.At(2, 0) != 5 || m.At(0, 2) != 5 {
		t.Fatal("SetSym failed")
	}
	r, c := m.Dims()
	if r != 3 || c != 3 {
		t.Fatal("Dims wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	m.At(3, 0)
}
