package tridiag

import (
	"math"

	"repro/internal/matrix"
)

// Steqr computes all eigenvalues, and optionally eigenvectors, of the
// symmetric tridiagonal matrix (d, e) by the implicit QL method with
// Wilkinson shifts (the classic imtql2 algorithm, the same family as
// LAPACK's DSTEQR), drawing its scratch from w.
//
// On return d holds the eigenvalues in ascending order and e is destroyed.
// If z is non-nil it must be an n×m matrix (m ≥ 1); the Givens rotations are
// accumulated into it, so passing the identity yields the eigenvectors of T
// in its columns, while passing an existing basis Q yields Q·E (the combined
// back-transformation). Columns of z are permuted together with d during the
// final sort.
func Steqr(d, e []float64, z *matrix.Dense, w *Work) error {
	n := len(d)
	checkTE(d, e)
	if z != nil && z.Rows != n {
		panic("tridiag: Steqr z must have n rows")
	}
	if n <= 1 {
		return nil
	}
	// The sweep uses e[m] with m up to n−1 as scratch, so work on an
	// n-length copy (the classic imtql2 convention); the caller's e is
	// still clobbered per the contract, but never read past n−2.
	ework := grown(&w.ework, n)
	copy(ework, e[:n-1])
	ework[n-1] = 0
	e = ework
	// Sterf's rule: a matrix whose largest entry lies outside
	// [ssfmin, ssfmax] is iterated on scaled by a power of two, where the
	// shift's differences and the rotations cannot overflow or underflow.
	exp := sterfScale(d, e[:n-1])
	if exp != 0 {
		ldexpInto(d, d, -exp)
		ldexpInto(e, e, -exp)
	}
	maxIter := MaxIterQL

	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find the first negligible off-diagonal at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= Eps*dd {
					break
				}
			}
			if m == l {
				break // d[l] converged
			}
			iter++
			if iter > maxIter {
				return ErrNoConvergence
			}
			// Wilkinson shift from the leading 2×2 of the unreduced block.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			// Implicit QL sweep from m-1 down to l.
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: split the matrix.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					// Apply the rotation to columns i and i+1 of z.
					zi := z.Data[i*z.Stride : i*z.Stride+z.Rows]
					zi1 := z.Data[(i+1)*z.Stride : (i+1)*z.Stride+z.Rows]
					for k := range zi {
						fk := zi1[k]
						zi1[k] = s*zi[k] + c*fk
						zi[k] = c*zi[k] - s*fk
					}
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	if exp != 0 {
		ldexpInto(d, d, exp)
	}
	sortEigen(d, z, w)
	return nil
}

// sortEigen sorts d ascending, applying the same permutation to the columns
// of z when z is non-nil. Insertion sort: the spectra produced by QL are
// already nearly sorted.
func sortEigen(d []float64, z *matrix.Dense, w *Work) {
	n := len(d)
	for i := 1; i < n; i++ {
		dv := d[i]
		j := i - 1
		for j >= 0 && d[j] > dv {
			j--
		}
		j++
		if j == i {
			continue
		}
		// Rotate d[j..i] right by one.
		for k := i; k > j; k-- {
			d[k] = d[k-1]
		}
		d[j] = dv
		if z != nil {
			swapColRotate(z, j, i, grown(&w.col, z.Rows))
		}
	}
}

// swapColRotate rotates columns j..i of z right by one (column i moves to
// position j). tmp must hold z.Rows floats.
func swapColRotate(z *matrix.Dense, j, i int, tmp []float64) {
	copy(tmp, z.Data[i*z.Stride:i*z.Stride+z.Rows])
	for k := i; k > j; k-- {
		copy(z.Data[k*z.Stride:k*z.Stride+z.Rows], z.Data[(k-1)*z.Stride:(k-1)*z.Stride+z.Rows])
	}
	copy(z.Data[j*z.Stride:j*z.Stride+z.Rows], tmp)
}
