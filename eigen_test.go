package eigen

import (
	"math"
	"math/rand"
	"testing"
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
			checkResidual(t, a, res)
		}
	}
}

func checkResidual(t *testing.T, a *Matrix, res *Result) {
	t.Helper()
	n, _ := a.Dims()
	for k := 0; k < len(res.Values); k++ {
		v := res.Vectors.Col(k)
		var worst float64
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * v[j]
			}
			if d := math.Abs(sum - res.Values[k]*v[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-10*float64(n) {
			t.Fatalf("eigenpair %d residual %g", k, worst)
		}
	}
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
	checkResidual(t, a, sub)
	if _, err := EigRange(a, 0, 5, nil); err == nil {
		t.Fatal("invalid range accepted")
	}
	if vals, err := EigValuesRange(a, 1, 5, nil); err != nil || len(vals) != 5 {
		t.Fatalf("EigValuesRange: %v, %d values", err, len(vals))
	}
}

func TestEigRejectsNonSymmetric(t *testing.T) {
	a := NewMatrix(3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	if _, err := Eig(a, nil); err == nil {
		t.Fatal("non-symmetric matrix accepted")
	}
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
