package tridiag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// secularBisect is the oracle of the secular tests: the root of
// mu ↦ f(d[base]+mu) in (lo, hi) by bisection on the sign of f, run to
// floating-point exhaustion. It is the solver secularRoot was before the
// rational iteration and reads nothing of f but its sign.
func secularBisect(d, z []float64, rho float64, base int, lo, hi float64) float64 {
	for {
		mid := lo + (hi-lo)/2
		if !(mid > lo && mid < hi) {
			break
		}
		if w, _, _, _, _ := secularEval(d, z, 1/rho, base, mid); w >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	if lo != 0 {
		return lo
	}
	return hi
}

// checkSecularRoot asserts everything the merge relies on for root k: strict
// interlacing in the (base, mu) representation, the stopping rule (|f| within
// the rounding error of its evaluation, or a bracket that bisection has
// exhausted), fewer evaluations than the safeguard's cap, and agreement with
// the bisection oracle to secularAgree·ε·erretm/f′ — the distance over which
// neither solver can tell the sign of f from rounding noise — plus an ulp.
// It returns the number of evaluations.
func checkSecularRoot(t *testing.T, name string, d, z []float64, rho float64, k int) int {
	t.Helper()
	const secularAgree = 4
	n := len(d)
	base, mu, evals := secularRoot(d, z, rho, k)
	var zsq float64
	for _, v := range z {
		zsq += v * v
	}
	// Interlacing, in units of mu so that it stays strict at one-ulp gaps.
	lo, hi := 0.0, 2*rho*zsq
	switch {
	case k == n-1 && base == k:
	case k < n-1 && base == k:
		hi = (d[k+1] - d[k]) / 2
	case k < n-1 && base == k+1:
		lo, hi = -(d[k+1]-d[k])/2, 0
	default:
		t.Fatalf("%s root %d: base %d is not a neighbouring pole", name, k, base)
	}
	if mu == 0 || mu < lo || mu > hi {
		t.Errorf("%s root %d: mu = %g outside (%g, %g) from pole %d", name, k, mu, lo, hi, base)
		return evals
	}
	if evals >= secularMaxRational {
		t.Errorf("%s root %d: %d evaluations reached the safeguard's cap", name, k, evals)
	}
	if n == 1 {
		return evals
	}
	w, _, dg, dbase, erretm := secularEval(d, z, 1/rho, base, mu)
	if math.Abs(w) > Eps/2*erretm {
		// Not converged by the error bound: then the bracket was exhausted,
		// and f changes sign within an ulp of mu.
		up, _, _, _, _ := secularEval(d, z, 1/rho, base, math.Nextafter(mu, math.Inf(1)))
		dn, _, _, _, _ := secularEval(d, z, 1/rho, base, math.Nextafter(mu, math.Inf(-1)))
		if !(dn <= 0 && up >= 0) || (w < 0 && up < 0) || (w > 0 && dn > 0) {
			t.Errorf("%s root %d: |f| = %g > ε·erretm = %g and no sign change around mu", name, k, math.Abs(w), Eps/2*erretm)
		}
	}
	want := secularBisect(d, z, rho, base, lo, hi)
	tol := secularAgree*Eps*erretm/(dg+dbase) + 2*Eps*math.Abs(mu)
	if math.Abs(mu-want) > tol {
		t.Errorf("%s root %d: mu = %g, bisection %g, apart %g > %g", name, k, mu, want, math.Abs(mu-want), tol)
	}
	return evals
}

func TestSecularRootInterlacing(t *testing.T) {
	var roots, evals int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := make([]float64, n)
		z := make([]float64, n)
		d[0] = rng.NormFloat64()
		for i := 1; i < n; i++ {
			d[i] = d[i-1] + 0.1 + rng.Float64() // strictly increasing
		}
		for i := range z {
			z[i] = rng.NormFloat64()
			if math.Abs(z[i]) < 1e-3 {
				z[i] = 1e-3
			}
		}
		rho := 0.1 + rng.Float64()
		for k := 0; k < n; k++ {
			evals += checkSecularRoot(t, "random", d, z, rho, k)
			roots++
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	t.Logf("random problems: %.2f evaluations per root over %d roots", float64(evals)/float64(roots), roots)
}

// TestSecularRootHardCases drives the root finder through the corners the
// merge can hand it once T is scaled to order one: the smallest problems,
// weights at the edge of underflow beside weights of order one, gaps of one
// ulp beside gaps of 1e+10, a rank-one term that is negligible or dominant,
// and a last root that sits on its upper bound.
func TestSecularRootHardCases(t *testing.T) {
	ulp := math.Nextafter(1, 2) - 1
	for _, c := range []struct {
		name string
		d, z []float64
		rho  float64
	}{
		{"k=1", []float64{0.5}, []float64{0.7}, 2},
		{"k=1 tiny weight", []float64{-3}, []float64{1e-150}, 1},
		{"k=2", []float64{-1, 1}, []float64{0.6, 0.8}, 1},
		{"k=2 close", []float64{1, 1 + ulp}, []float64{1, 1}, 0.5},
		{"tiny weight", []float64{-1, 0, 0.5, 2}, []float64{0.5, 1e-150, 0.7, 0.5}, 1},
		{"tiny weights", []float64{-1, 0, 0.5, 2}, []float64{1e-150, 1, 1e-150, 1e-150}, 1},
		{"ulp and 1e10 gaps", []float64{1, 1 + ulp, 1 + 2*ulp, 3, 1e10, 2e10}, []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}, 1},
		{"rho 1e-12", []float64{-2, -1, 0, 1, 2}, []float64{0.3, 0.5, 0.4, 0.5, 0.3}, 1e-12},
		{"rho 1e+12", []float64{-2, -1, 0, 1, 2}, []float64{0.3, 0.5, 0.4, 0.5, 0.3}, 1e12},
		{"last root at its bound", []float64{0, 1, 2, 3}, []float64{1e-150, 1e-150, 1e-150, 1}, 1.5},
		{"last root near its bound", []float64{0, 1, 2, 3}, []float64{1e-150, 1e-9, 1e-150, 1}, 1.5},
		{"graded weights", []float64{1e-8, 1e-4, 1, 1e4}, []float64{1e-8, 1e-4, 1e-2, 1}, 1},
	} {
		for k := range c.d {
			checkSecularRoot(t, c.name, c.d, c.z, c.rho, k)
		}
	}
}

func TestSecularRootAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	d := make([]float64, n)
	z := make([]float64, n)
	for i := range d {
		d[i] = float64(i) + rng.Float64()/2
		z[i] = rng.NormFloat64()
	}
	if a := testing.AllocsPerRun(10, func() {
		for k := 0; k < n; k++ {
			secularRoot(d, z, 0.7, k)
		}
	}); a != 0 {
		t.Errorf("secularRoot allocates: %v per %d roots", a, n)
	}
}
