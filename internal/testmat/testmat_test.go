package testmat

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestSpectrumErrorScaled: the score is scale-free. Spectra scaled by a
// power of two score exactly like the unit-scale pair, and by 1e307 (where
// ‖want‖·n overflows) to rounding.
func TestSpectrumErrorScaled(t *testing.T) {
	const n = 200
	want := make([]float64, n)
	got := make([]float64, n)
	for i := range want {
		want[i] = -1 + 2*float64(i)/(n-1)
		got[i] = want[i]
	}
	got[n/3] += 1e-3
	unit := SpectrumError(got, want)
	if unit < 1e10 {
		t.Fatalf("unit scale: %g, want about 2.25e10", unit)
	}
	for _, s := range []float64{0x1p1000, 0x1p-1000, 1e307} {
		gs := make([]float64, n)
		ws := make([]float64, n)
		for i := range want {
			gs[i], ws[i] = got[i]*s, want[i]*s
		}
		v := SpectrumError(gs, ws)
		tol := 0.0
		if s == 1e307 {
			tol = 1e-12 * unit
		}
		if math.Abs(v-unit) > tol {
			t.Errorf("scale %g: %g, unit scale %g", s, v, unit)
		}
	}
}

// TestResidualScaled: the residual is scale-free. A wrong basis (Z = I with
// λ = 0) scores the same at every scale, exactly at powers of two and to a
// few ulps where multiplying by s rounds each entry; ‖s·A‖_F alone overflows
// at 1e307, which must not turn the score into 0.
func TestResidualScaled(t *testing.T) {
	const n = 60
	a := RandomSym(rand.New(rand.NewSource(1)), n)
	z, vals := matrix.Eye(n), make([]float64, n)
	unit := Residual(a, vals, z)
	if unit < 1e12 {
		t.Fatalf("unit scale: %g, want about 1e13", unit)
	}
	for _, s := range []float64{1e-305, 0x1p-1000, 0x1p1000, 1e307} {
		as := a.Clone()
		for i := range as.Data {
			as.Data[i] *= s
		}
		v := Residual(as, vals, z)
		t.Logf("scale %g: %.17g (unit scale %.17g)", s, v, unit)
		if !(math.Abs(v-unit) <= 4*eps*unit) {
			t.Errorf("scale %g: %g, unit scale %g", s, v, unit)
		}
	}
}

// TestCheck: on diag(1, …, n), whose eigenpairs are exact, Check passes the
// true solution and names the first property each broken one fails.
func TestCheck(t *testing.T) {
	const n = 8
	a := matrix.NewDense(n, n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
		a.Set(i, i, vals[i])
	}
	if sc, err := Check(a, vals, matrix.Eye(n), 0); err != nil || sc != (Scores{}) {
		t.Fatalf("exact pairs: %+v, %v", sc, err)
	}
	if _, err := Check(a, vals, nil, 1); err != nil {
		t.Fatalf("exact values only: %v", err)
	}
	swapped := matrix.Eye(n)
	swapped.Set(0, 0, 0)
	swapped.Set(1, 1, 0)
	swapped.Set(0, 1, 1)
	swapped.Set(1, 0, 1)
	shifted := append([]float64(nil), vals...)
	shifted[n-1] += 1e-6
	for _, c := range []struct {
		name, kind string
		vals       []float64
		z          *matrix.Dense
	}{
		{"wrong basis", "residual", vals, swapped},
		{"NaN value", "order", append([]float64{math.NaN()}, vals[1:]...), nil},
		{"NaN vector", "residual", vals, matrix.NewDenseFrom(n, n, n, append(make([]float64, n*n-1), math.NaN()))},
		{"descending", "order", []float64{2, 1, 3, 4, 5, 6, 7, 8}, nil},
		{"shifted value", "invariant", shifted, nil},
	} {
		_, err := Check(a, c.vals, c.z, 50)
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Kind != c.kind || ce.Score <= ce.Bound {
			t.Errorf("%s: %v, want a %s failure", c.name, err, c.kind)
		}
	}
}
