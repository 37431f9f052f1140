package tridiag

import (
	"math"
	"slices"
)

// Constants of the root-free iteration, as in LAPACK's DSTERF: the relative
// machine precision and its square (the iteration works on e², so its
// negligibility test is eps²·|d_m·d_{m+1}|), and the range [ssfmin, ssfmax]
// inside which a block's entries can be squared without leaving the
// floating-point range.
const (
	sterfEps  = Eps / 2
	sterfEps2 = sterfEps * sterfEps
	safmin    = 0x1p-1022
)

var (
	ssfmax = math.Sqrt(1/safmin) / 3
	ssfmin = math.Sqrt(safmin) / sterfEps2
)

// Sterf computes all eigenvalues of the symmetric tridiagonal matrix (d, e)
// by the Pal–Walker–Kahan root-free variant of the QL/QR iteration (LAPACK's
// DSTERF): no square root or rotation inside a sweep, one division pair per
// step. The matrix is split at negligible off-diagonals, each unreduced block
// is scaled into [ssfmin, ssfmax] (by a power of two, so exactly) and back,
// and runs QL from whichever end of its diagonal is smaller (dsterf's choice
// between QL and QR). On return d holds the eigenvalues in ascending order
// and e is destroyed. The whole solve may take n·MaxIterQL sweeps;
// ErrNoConvergence reports a block that needed one more.
func Sterf(d, e []float64) error {
	n := len(d)
	checkTE(d, e)
	if n <= 1 {
		return nil
	}
	e = e[:n-1]
	budget := n * MaxIterQL
	for l1 := 0; l1 < n; {
		// The next unreduced block is rows l..lend.
		l, lend := l1, l1
		for ; lend < n-1; lend++ {
			if math.Abs(e[lend]) <= math.Sqrt(math.Abs(d[lend]))*math.Sqrt(math.Abs(d[lend+1]))*sterfEps {
				e[lend] = 0
				break
			}
		}
		l1 = lend + 1
		if lend == l {
			continue
		}
		db, eb := d[l:lend+1], e[l:lend]
		exp := sterfScale(db, eb)
		if exp != 0 {
			ldexpInto(db, db, -exp)
			ldexpInto(eb, eb, -exp)
		}
		for i, v := range eb {
			eb[i] = v * v
		}
		// QL deflates from the top and converges fastest when the diagonal
		// grows downwards; dsterf's QR branch for the other case is QL on the
		// block flipped end for end, and flipped it may stay: d is sorted last.
		if math.Abs(db[len(db)-1]) < math.Abs(db[0]) {
			slices.Reverse(db)
			slices.Reverse(eb)
		}
		var ok bool
		budget, ok = sterfQL(db, eb, budget)
		if exp != 0 {
			ldexpInto(db, db, exp)
		}
		if !ok {
			return ErrNoConvergence
		}
	}
	slices.Sort(d)
	return nil
}

// maxAbs returns the largest magnitude among the entries of d and e.
func maxAbs(d, e []float64) float64 {
	var m float64
	for _, v := range d {
		m = math.Max(m, math.Abs(v))
	}
	for _, v := range e {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// sterfScale returns the exponent of the power of two that Sterf, Steqr,
// bisection and inverse iteration divide a matrix by: that of max|T| when it
// lies outside [ssfmin, ssfmax], and 0 (no scaling, every bit kept) inside.
func sterfScale(d, e []float64) int {
	if anorm := maxAbs(d, e); anorm > ssfmax || (anorm < ssfmin && anorm > 0) {
		_, exp := math.Frexp(anorm)
		return exp
	}
	return 0
}

// ldexpInto sets dst[i] = src[i]·2^exp.
func ldexpInto(dst, src []float64, exp int) {
	for i, v := range src {
		dst[i] = math.Ldexp(v, exp)
	}
}

// sterfShift returns the Wilkinson shift for the end of a block whose last
// diagonal entry is p, the one before it q and the squared off-diagonal
// between them e2.
func sterfShift(p, q, e2 float64) float64 {
	rte := math.Sqrt(e2)
	sigma := (q - p) / (2 * rte)
	return p - rte/(sigma+math.Copysign(math.Hypot(sigma, 1), sigma))
}

// sterfQL runs the root-free QL iteration on the unreduced block (d, e2), e2
// holding the squared off-diagonals, deflating eigenvalues from the top and
// leaving them in d in no particular order. It returns what is left of the
// sweep budget and whether the block converged.
func sterfQL(d, e2 []float64, budget int) (int, bool) {
	lend := len(d) - 1
	for l := 0; l <= lend; {
		m := l
		for ; m < lend; m++ {
			if math.Abs(e2[m]) <= sterfEps2*math.Abs(d[m]*d[m+1]) {
				e2[m] = 0
				break
			}
		}
		switch m {
		case l: // d[l] is an eigenvalue
			l++
			continue
		case l + 1: // a 2×2 block
			d[l], d[l+1] = lae2(d[l], math.Sqrt(e2[l]), d[l+1])
			e2[l] = 0
			l += 2
			continue
		}
		if budget == 0 {
			return 0, false
		}
		budget--
		sigma := sterfShift(d[l], d[l+1], e2[l])
		c, s := 1.0, 0.0
		gamma := d[m] - sigma
		p := gamma * gamma
		for i := m - 1; i >= l; i-- {
			bb := e2[i]
			r := p + bb
			if i != m-1 {
				e2[i+1] = s * r
			}
			oldc := c
			c = p / r
			s = bb / r
			oldgam := gamma
			alpha := d[i]
			gamma = c*(alpha-sigma) - s*oldgam
			d[i+1] = oldgam + (alpha - gamma)
			if c != 0 {
				p = gamma * gamma / c
			} else {
				p = oldc * bb
			}
		}
		e2[l] = s * p
		d[l] = sigma + gamma
	}
	return budget, true
}

// lae2 returns the eigenvalues of the symmetric 2×2 matrix [a b; b c], the one
// of larger magnitude first (LAPACK's DLAE2).
func lae2(a, b, c float64) (rt1, rt2 float64) {
	sm, adf, ab := a+c, math.Abs(a-c), math.Abs(b+b)
	acmx, acmn := c, a
	if math.Abs(a) > math.Abs(c) {
		acmx, acmn = a, c
	}
	var rt float64
	switch {
	case adf > ab:
		rt = adf * math.Sqrt(1+(ab/adf)*(ab/adf))
	case adf < ab:
		rt = ab * math.Sqrt(1+(adf/ab)*(adf/ab))
	default:
		rt = ab * math.Sqrt2
	}
	switch {
	case sm < 0:
		rt1 = 0.5 * (sm - rt)
		rt2 = (acmx/rt1)*acmn - (b/rt1)*b
	case sm > 0:
		rt1 = 0.5 * (sm + rt)
		rt2 = (acmx/rt1)*acmn - (b/rt1)*b
	default:
		rt1, rt2 = 0.5*rt, -0.5*rt
	}
	return rt1, rt2
}
