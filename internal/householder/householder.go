// Package householder implements the Householder reflector machinery the
// reductions are built from: reflector generation (Larfg), single-reflector
// application (Larf), and the compact WY blocked representation (Larft to
// form it, Block to apply it) used to aggregate several reflectors so they
// can be applied at Level-3 speed — the core trick behind both reduction
// stages and both back-transformations in the paper.
package householder

import (
	"math"

	"repro/internal/blas"
)

// Larfg generates an elementary Householder reflector H of order n such
// that
//
//	H · [alpha; x] = [beta; 0],   H = I − tau·v·vᵀ,   v = [1; vTail]
//
// On return x is overwritten with vTail (the essential part of v). It
// returns beta and tau. When the input is already in the desired form
// (x = 0), tau = 0 and H = I. This mirrors LAPACK's DLARFG including the
// rescaling loop that guards against underflow of the norm.
func Larfg(n int, alpha float64, x []float64, incX int) (beta, tau float64) {
	if n <= 0 {
		return alpha, 0
	}
	if n == 1 {
		return alpha, 0
	}
	xnorm := blas.Dnrm2(n-1, x, incX)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	const safmin = 0x1p-1022 / (2 * 0x1p-52) // smallest value whose reciprocal doesn't overflow
	var scaleCount int
	for math.Abs(beta) < safmin {
		// xnorm and beta may be inaccurate; scale x and recompute.
		blas.Dscal(n-1, 1/safmin, x, incX)
		beta /= safmin
		alpha /= safmin
		scaleCount++
		if scaleCount > 20 {
			break
		}
	}
	if scaleCount > 0 {
		xnorm = blas.Dnrm2(n-1, x, incX)
		beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	}
	tau = (beta - alpha) / beta
	blas.Dscal(n-1, 1/(alpha-beta), x, incX)
	for ; scaleCount > 0; scaleCount-- {
		beta *= safmin
	}
	return beta, tau
}

// lapy2 returns sqrt(x² + y²) without unnecessary overflow.
func lapy2(x, y float64) float64 {
	return math.Hypot(x, y)
}

// Larf applies the elementary reflector H = I − tau·v·vᵀ to the m×n matrix
// C from the given side. v has length m (side Left) or n (side Right), and
// is used as stored — callers that follow the "essential part" convention
// must pass a v whose first element is 1. work must have length ≥ n (Left)
// or ≥ m (Right).
func Larf(side blas.Side, m, n int, v []float64, incV int, tau float64, c []float64, ldc int, work []float64) {
	if tau == 0 {
		return
	}
	if side == blas.Left {
		// w = Cᵀ v ; C -= tau · v · wᵀ
		blas.Dgemv(blas.Trans, m, n, 1, c, ldc, v, incV, 0, work[:n], 1)
		blas.Dger(m, n, -tau, v, incV, work[:n], 1, c, ldc)
	} else {
		// w = C v ; C -= tau · w · vᵀ
		blas.Dgemv(blas.NoTrans, m, n, 1, c, ldc, v, incV, 0, work[:m], 1)
		blas.Dger(m, n, -tau, work[:m], 1, v, incV, c, ldc)
	}
}

// Larft forms the upper triangular factor T of the compact WY block
// reflector H = I − V·T·Vᵀ from k forward, column-stored elementary
// reflectors. V is m×k; only the strictly-below-diagonal part of V is read:
// reflector j is taken to be v_j = [0…0, 1, V[j+1:m, j]] regardless of what
// is stored on and above the diagonal. T is k×k with leading dimension ldt.
func Larft(m, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		// T[0:i, i] = -tau[i] · V[:, 0:i]ᵀ · v_i, using the implicit
		// unit-diagonal structure: v_i is zero above row i and 1 at row i.
		// Each entry starts from row i's contribution V[i, j]·1 and adds
		// rows i+1… in ascending order; four columns j run side by side,
		// as independent sums.
		vi := v[i*ldv : i*ldv+m]
		j := 0
		for ; j+3 < i; j += 4 {
			c0, c1, c2, c3 := v[j*ldv:j*ldv+m], v[(j+1)*ldv:(j+1)*ldv+m], v[(j+2)*ldv:(j+2)*ldv+m], v[(j+3)*ldv:(j+3)*ldv+m]
			s0, s1, s2, s3 := c0[i], c1[i], c2[i], c3[i]
			for r := i + 1; r < m; r++ {
				x := vi[r]
				s0 += c0[r] * x
				s1 += c1[r] * x
				s2 += c2[r] * x
				s3 += c3[r] * x
			}
			t[j+i*ldt] = -tau[i] * s0
			t[j+1+i*ldt] = -tau[i] * s1
			t[j+2+i*ldt] = -tau[i] * s2
			t[j+3+i*ldt] = -tau[i] * s3
		}
		for ; j < i; j++ {
			cj := v[j*ldv : j*ldv+m]
			sum := cj[i]
			for r := i + 1; r < m; r++ {
				sum += cj[r] * vi[r]
			}
			t[j+i*ldt] = -tau[i] * sum
		}
		// T[0:i, i] = T[0:i, 0:i] · T[0:i, i] (triangular update).
		if i > 0 {
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t, ldt, t[i*ldt:], 1)
		}
		t[i+i*ldt] = tau[i]
	}
}
