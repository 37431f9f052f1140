package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

func TestLoadMatrixGenerators(t *testing.T) {
	for _, gen := range []string{"random", "laplacian", "clustered", ""} {
		a, err := loadMatrix(gen, "", 12, 3)
		if err != nil {
			t.Fatalf("%q: %v", gen, err)
		}
		r, c := a.Dims()
		if r != 12 || c != 12 {
			t.Fatalf("%q: got %dx%d", gen, r, c)
		}
		// Must be symmetric (the solver would reject it otherwise).
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if a.At(i, j) != a.At(j, i) {
					t.Fatalf("%q: asymmetric at (%d,%d)", gen, i, j)
				}
			}
		}
	}
	if _, err := loadMatrix("nope", "", 4, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestReadMatrixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.txt")
	content := "3\n2 1 0\n1 2 1\n0 1 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := readMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || a.At(1, 0) != 1 || a.At(2, 0) != 0 || a.At(2, 1) != 1 {
		t.Fatal("matrix contents wrong")
	}
	// Solve it end to end: eigenvalues of tridiag(1,2,1) of order 3 are
	// 2−√2, 2, 2+√2.
	vals, err := eigen.EigValues(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 - math.Sqrt2, 2, 2 + math.Sqrt2}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestReadMatrixErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"truncated.txt": "3\n1 2 3 4",
		"badsize.txt":   "x\n",
		"badval.txt":    "2\n1 2 3 zz",
		"negsize.txt":   "-2\n1 2 3 4",
		"hugesize.txt":  "100000000\n1 2 3 4",
		"overflow.txt":  "3037000500\n1 2 3 4",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readMatrix(path); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := readMatrix(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file: expected error")
	}
}

// TestCheckScoresSmall: the scores eigsolve -vectors prints are those of a
// backward stable solve, and a wrong eigenvalue shows in the residual.
func TestCheckScoresSmall(t *testing.T) {
	a, err := loadMatrix("laplacian", "", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eigen.Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := check(a, res)
	if err != nil || !(sc.Residual <= 50) || !(sc.Ortho <= 50) {
		t.Fatalf("scores %+v, error %v", sc, err)
	}
	res.Values[3] += 1e-6
	if sc, _ := check(a, res); !(sc.Residual > 1e6) {
		t.Fatalf("a perturbed eigenvalue scores residual %g", sc.Residual)
	}
}
