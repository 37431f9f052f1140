package householder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// applyHNaive builds H = I - tau v vᵀ densely and applies it to C.
func applyHNaive(side blas.Side, m, n int, v []float64, tau float64, c *matrix.Dense) *matrix.Dense {
	order := m
	if side == blas.Right {
		order = n
	}
	h := matrix.Eye(order)
	for i := 0; i < order; i++ {
		for j := 0; j < order; j++ {
			h.Set(i, j, h.At(i, j)-tau*v[i]*v[j])
		}
	}
	out := matrix.NewDense(m, n)
	if side == blas.Left {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, m, 1, h.Data, h.Stride, c.Data, c.Stride, 0, out.Data, out.Stride)
	} else {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, n, 1, c.Data, c.Stride, h.Data, h.Stride, 0, out.Data, out.Stride)
	}
	return out
}

func TestLarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 33} {
		alpha := rng.NormFloat64()
		x := make([]float64, n-1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		orig := append([]float64{alpha}, x...)
		beta, tau := Larfg(n, alpha, x, 1)
		// Apply H = I - tau v vᵀ to the original vector; result must be
		// [beta, 0, ..., 0].
		v := append([]float64{1}, x...)
		var vdotu float64
		for i := range v {
			vdotu += v[i] * orig[i]
		}
		got := make([]float64, n)
		for i := range got {
			got[i] = orig[i] - tau*v[i]*vdotu
		}
		if math.Abs(got[0]-beta) > 1e-13*(1+math.Abs(beta)) {
			t.Fatalf("n=%d: H·u[0] = %g, want beta = %g", n, got[0], beta)
		}
		for i := 1; i < n; i++ {
			if math.Abs(got[i]) > 1e-13*(1+math.Abs(beta)) {
				t.Fatalf("n=%d: H·u[%d] = %g, want 0", n, i, got[i])
			}
		}
		// Norm preservation: |beta| == ‖u‖₂.
		nrm := blas.Dnrm2(n, orig, 1)
		if math.Abs(math.Abs(beta)-nrm) > 1e-13*(1+nrm) {
			t.Fatalf("n=%d: |beta| = %g, want %g", n, math.Abs(beta), nrm)
		}
	}
}

func TestLarfgZeroTail(t *testing.T) {
	x := []float64{0, 0, 0}
	beta, tau := Larfg(4, 2.5, x, 1)
	if tau != 0 || beta != 2.5 {
		t.Fatalf("zero tail: beta=%v tau=%v, want 2.5, 0", beta, tau)
	}
}

func TestLarfgTinyValues(t *testing.T) {
	// Exercise the rescaling loop with subnormal-scale inputs.
	alpha := 1e-300
	x := []float64{3e-300, 4e-300}
	beta, tau := Larfg(3, alpha, x, 1)
	want := math.Sqrt(1+9+16) * 1e-300
	if math.Abs(math.Abs(beta)-want)/want > 1e-10 {
		t.Fatalf("tiny Larfg: |beta| = %g, want %g", math.Abs(beta), want)
	}
	if tau < 0 || tau > 2 {
		t.Fatalf("tau = %g outside [0,2]", tau)
	}
}

func TestLarfgProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		alpha := rng.NormFloat64()
		x := make([]float64, n-1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		u := append([]float64{alpha}, x...)
		nrm := blas.Dnrm2(n, u, 1)
		beta, tau := Larfg(n, alpha, x, 1)
		// tau in [0, 2] for a real reflector and |beta| = ‖u‖.
		return tau >= 0 && tau <= 2 && math.Abs(math.Abs(beta)-nrm) <= 1e-12*(1+nrm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLarfAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n := 7, 5
	work := make([]float64, m+n)
	for _, side := range []blas.Side{blas.Left, blas.Right} {
		vlen := m
		if side == blas.Right {
			vlen = n
		}
		v := make([]float64, vlen)
		v[0] = 1
		for i := 1; i < vlen; i++ {
			v[i] = rng.NormFloat64()
		}
		tau := 2 / blas.Ddot(vlen, v, 1, v, 1) // makes H exactly orthogonal
		c := matrix.NewDense(m, n)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		want := applyHNaive(side, m, n, v, tau, c)
		Larf(side, m, n, v, 1, tau, c.Data, c.Stride, work)
		if !c.Equalish(want, 1e-12) {
			t.Fatalf("Larf side=%c mismatch", side)
		}
	}
}

// buildVT generates k random forward column reflectors in an m×k V (unit
// lower trapezoidal, essential parts stored below the diagonal) plus taus.
func buildVT(rng *rand.Rand, m, k int) (v []float64, tau []float64) {
	v = make([]float64, m*k)
	tau = make([]float64, k)
	for j := 0; j < k; j++ {
		// Garbage on/above diagonal to verify it is not referenced.
		for i := 0; i <= j && i < m; i++ {
			v[i+j*m] = rng.NormFloat64() * 100
		}
		vec := []float64{1}
		for i := j + 1; i < m; i++ {
			v[i+j*m] = rng.NormFloat64()
			vec = append(vec, v[i+j*m])
		}
		tau[j] = 2 / blas.Ddot(len(vec), vec, 1, vec, 1)
	}
	return v, tau
}

// larftRowLoop is Larft as it was written before its four-column dots: each
// entry of T[0:i, i] one sum at a time. It pins Larft's bits.
func larftRowLoop(m, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		for j := 0; j < i; j++ {
			sum := v[i+j*ldv]
			for r := i + 1; r < m; r++ {
				sum += v[r+j*ldv] * v[r+i*ldv]
			}
			t[j+i*ldt] = -tau[i] * sum
		}
		if i > 0 {
			for r := 0; r < i; r++ { // Dtrmv in row order
				sum := t[r+r*ldt] * t[r+i*ldt]
				for c := r + 1; c < i; c++ {
					sum += t[r+c*ldt] * t[c+i*ldt]
				}
				t[r+i*ldt] = sum
			}
		}
		t[i+i*ldt] = tau[i]
	}
}

// TestLarftMatchesRowLoop: Larft gives the row loop's bits, at every k mod 4,
// with zero scales among the reflectors.
func TestLarftMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, sh := range []struct{ m, k int }{{1, 1}, {5, 3}, {9, 4}, {17, 5}, {40, 6}, {64, 7}, {100, 32}, {333, 48}} {
		ldv, ldt := sh.m+2, sh.k+1
		v := make([]float64, ldv*sh.k)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		tau := make([]float64, sh.k)
		for i := range tau {
			if rng.Intn(5) > 0 {
				tau[i] = 1 + rng.Float64()
			}
		}
		got, want := make([]float64, ldt*sh.k), make([]float64, ldt*sh.k)
		Larft(sh.m, sh.k, v, ldv, tau, got, ldt)
		larftRowLoop(sh.m, sh.k, v, ldv, tau, want, ldt)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("m=%d k=%d: T value %d is %g, the row loop gives %g", sh.m, sh.k, i, got[i], want[i])
			}
		}
	}
}
