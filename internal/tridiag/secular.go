package tridiag

import "math"

// secularMaxRational is the number of evaluations after which secularRoot
// stops trusting the rational step and bisects its bracket. Quadratic
// convergence needs 2–15; no matrix in the test suite gets near the cap.
const secularMaxRational = 30

// secularRoot solves the secular equation arising in the divide-and-conquer
// merge step,
//
//	f(λ) = 1/rho + Σ_i z[i]² / (d[i] − λ) = 0,
//
// for its k-th root (0-based), where d is strictly increasing and rho > 0.
// The roots interlace: d[k] < λ_k < d[k+1] for k < n−1 and
// d[n−1] < λ_{n−1} ≤ d[n−1] + rho·Σz².
//
// To avoid catastrophic cancellation the root is returned as a pair
// (base, mu): λ = d[base] + mu, where base is k or k+1, whichever is closer
// to the root, and mu ≠ 0. Downstream consumers (the Löwner rebuild of ẑ and
// the eigenvector assembly) must form differences λ − d[i] as
// (d[base] − d[i]) + mu, never by subtracting recomputed λ values.
//
// The root is found the way LAPACK's dlaed4 finds it: by rational
// interpolation. Around the pole at d[base] the term z[base]²/(d[base] − λ)
// is kept exactly and the rest of f, which is smooth there, is replaced by the
// one-pole rational c + R/(d[o] − λ) that matches its value and slope at the
// current iterate, o being the other pole next to the root (the last but one
// for the last root); the iterate moves to the root of that model, a
// quadratic. It converges quadratically — about five evaluations of f per
// root where bisection takes fifty-five. The first evaluation is at the
// midpoint of the root's interval, whose sign picks the origin; the first
// step from there is dlaed4's initial guess (both neighbouring poles exact,
// the rest constant), solved for the distance from the origin rather than for
// an increment, which is what finds a root that a weight of 1e−150 holds
// 1e−300 from its pole.
//
// Every evaluation also narrows a bracket of the root (f increases between
// poles). A step that would leave the bracket is replaced by the bracket's
// midpoint, and after secularMaxRational evaluations every step is, so
// bisection is the safeguard that bounds the iteration, not a second solver.
// The iteration stops when |f| is below the rounding error of its own
// evaluation (ε·erretm, dlaed4's running bound), which with the shifted
// representation is full accuracy relative to the distance from the nearer
// pole — what the Gu–Eisenstat construction needs.
//
// The quotients z²/(d − λ) are formed without any scaling, so the caller
// keeps them in range: StedcSched scales T to max|T| ∈ [1, 2) first.
//
// evals is how many times it evaluated f (the merge's flop attribution is
// that count times len(d)).
func secularRoot(d, z []float64, rho float64, k int) (base int, mu float64, evals int) {
	n := len(d)
	if rho <= 0 {
		panic("tridiag: secularRoot requires rho > 0")
	}
	if k < 0 || k >= n {
		panic("tridiag: secularRoot index out of range")
	}
	if n == 1 {
		// One pole: f is linear in 1/(d − λ).
		if mu = rho * z[0] * z[0]; mu == 0 {
			mu = math.SmallestNonzeroFloat64
		}
		return 0, mu, 0
	}
	rhoinv := 1 / rho

	// base and o are the two poles of the model. The bracket (lo, hi) is in
	// units of mu; its first midpoint is half-way between the poles of an
	// interior root, and for the last root the bound d[n−1] + rho·Σz², where
	// f ≥ 0.
	base, o, last := k, k+1, k == n-1
	var hi float64
	if last {
		o = k - 1
		var zsq float64
		for _, v := range z {
			zsq += v * v
		}
		hi = 2 * rho * zsq
	} else {
		hi = d[k+1] - d[k]
	}
	lo, tau := 0.0, hi/2

	for {
		w, g, dg, dbase, erretm := secularEval(d, z, rhoinv, base, tau)
		evals++
		if math.Abs(w) <= Eps/2*erretm {
			return base, tau, evals
		}
		// The model z[base]²/(δb − η) + c + R/(δo − η) = 0, as the quadratic
		// c·η² − a·η + b = 0 in the step η from org.
		var org, a, b, c float64
		if evals == 1 {
			// dlaed4's initial guess: R = z[o]², c what is left of f at the
			// midpoint without the two poles, org the origin.
			c = g - z[o]*z[o]/((d[o]-d[base])-tau)
			switch {
			case w >= 0:
				hi = tau
			case last:
				lo = tau
			default:
				// The root is in the upper half of (d[k], d[k+1]): move the
				// origin to the nearer pole, −gap/2 from the midpoint.
				base, o = o, base
				tau = -tau
				lo, hi = tau, 0
			}
			xo, zb := d[o]-d[base], z[base]*z[base]
			a = c*xo + zb + z[o]*z[o]
			b = zb * xo
		} else {
			if w >= 0 {
				hi = tau
			} else {
				lo = tau
			}
			// R = δo²·dg. δo·dg is subtracted from g, not δo·dw from w as
			// dlaed4 does: next to the pole the base term is most of w and of
			// dw, and their difference loses c entirely.
			org = tau
			do := (d[o] - d[base]) - tau
			c = g - do*dg
			a = (do-tau)*w + tau*do*(dg+dbase)
			b = -tau * do * w
		}
		// An interior root lies between the two poles, the last root beyond
		// both; each form is the one free of cancellation for its sign of a.
		disc := math.Sqrt(math.Abs(a*a - 4*b*c))
		var eta float64
		switch {
		case c == 0:
			eta = b / a
		case last && a >= 0:
			eta = (a + disc) / (2 * c)
		case last:
			eta = 2 * b / (a - disc)
		case a <= 0:
			eta = (a - disc) / (2 * c)
		default:
			eta = 2 * b / (a + disc)
		}
		t := org + eta
		// The comparisons are written so that a NaN step fails them.
		if evals >= secularMaxRational || !(t > lo && t < hi) {
			t = lo + (hi-lo)/2
			if !(t > lo && t < hi) {
				// lo and hi are adjacent floats: tau is the root to the last
				// bit even though the error bound was never met.
				return base, tau, evals
			}
		}
		tau = t
	}
}

// secularEval computes w = f(d[base] + tau) with the shifted differences
// (d[i] − d[base]) − tau, which are exact near the pole at d[base]. Beside
// w it returns g and dg, the value and the slope of f without its base term,
// dbase, the slope of the base term, and erretm, dlaed4's bound on the
// rounding error of w in units of ε: the terms below base (ψ) and above it (φ)
// are each summed towards the root, smallest first, and the partial sums are
// what the bound accumulates.
func secularEval(d, z []float64, rhoinv float64, base int, tau float64) (w, g, dg, dbase, erretm float64) {
	org := d[base]
	var psi, phi float64
	for j := 0; j < base; j++ {
		t := z[j] / ((d[j] - org) - tau)
		psi += z[j] * t
		dg += t * t
		erretm += psi
	}
	erretm = math.Abs(erretm)
	for j := len(d) - 1; j > base; j-- {
		t := z[j] / ((d[j] - org) - tau)
		phi += z[j] * t
		dg += t * t
		erretm += phi
	}
	t := z[base] / -tau
	dbase = t * t
	t *= z[base]
	g = rhoinv + phi + psi
	w = g + t
	erretm = 8*(phi-psi) + erretm + 2*rhoinv + 3*math.Abs(t) + math.Abs(tau)*(dg+dbase)
	return w, g, dg, dbase, erretm
}
