package testmat

import (
	"math"
	"testing"
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
