package tridiag

import "math"

// SturmCount returns the number of eigenvalues of the symmetric tridiagonal
// matrix (d, e) that are strictly less than x, computed from the signs of
// the LDLᵀ pivots of T − x·I with the standard safeguard against zero
// pivots.
func SturmCount(d, e []float64, x float64) int {
	n := len(d)
	count := 0
	q := 1.0
	for i := 0; i < n; i++ {
		var e2 float64
		if i > 0 {
			e2 = e[i-1] * e[i-1]
		}
		q = d[i] - x - e2/q
		if q <= 0 {
			// An exactly zero pivot is counted as negative (tie-break: an
			// eigenvalue of a leading minor equal to x counts as below x)
			// and then replaced by a tiny negative value so the recurrence
			// never divides by zero. Counting before replacing keeps the
			// count monotone in x.
			count++
			if q == 0 {
				q = -Eps * (math.Abs(x) + 1)
			}
		}
	}
	return count
}

// stebzIval is one entry of the bisection work-stack: eigenvalues a..b
// (1-based) are known to lie in (lo, hi], which has been halved depth times.
type stebzIval struct {
	lo, hi float64
	a, b   int
	depth  int
}

// stebzMaxDepth bounds the halvings applied to any bracket (the former
// per-eigenvalue iteration guard: one halving per iteration).
const stebzMaxDepth = 20000

// stebzDone is the DSTEBZ-style convergence test on a bracket.
func stebzDone(lo, hi float64) bool {
	return hi-lo <= 2*Eps*(math.Abs(lo)+math.Abs(hi))+2*math.SmallestNonzeroFloat64
}

// stebzBracket returns the initial bracket strictly containing the spectrum.
func stebzBracket(d, e []float64) (lo, hi float64) {
	bound := maxAbsBound(d, e)
	return -bound - 1 - 2*Eps*bound, bound + 1 + 2*Eps*bound
}

// stebzInto computes eigenvalues a..b (1-based, ascending) of (d, e) into
// out[idx-off] for idx in [a, b] by bisection on the Sturm count, sharing
// each count between every eigenvalue in the bracket: the work-stack splits
// a bracket at its midpoint and routes index sub-ranges to the halves, so a
// count at depth g serves all eigenvalues still sharing that bracket
// instead of being recomputed once per eigenvalue from the global bracket.
//
// The midpoint sequence refining eigenvalue #idx depends only on (lo0, hi0)
// and the Sturm counts along its root path — never on which other indices
// are being computed — so the results are bitwise identical to the classic
// one-eigenvalue-at-a-time loop, and to any partition of [a, b] into
// sub-ranges (what the chunk-parallel StebzSched relies on). It returns the
// number of Sturm counts spent (for flop attribution).
func (w *Work) stebzInto(d, e []float64, a, b int, out []float64, off int) int {
	lo0, hi0 := stebzBracket(d, e)
	stack := w.stebzStackBuf()
	stack = append(stack, stebzIval{lo: lo0, hi: hi0, a: a, b: b})
	counts := 0
	for len(stack) > 0 {
		iv := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mid := 0.5 * (iv.lo + iv.hi)
		if mid <= iv.lo || mid >= iv.hi || iv.depth >= stebzMaxDepth {
			// The bracket is exhausted to floating-point resolution (or the
			// guard tripped); every eigenvalue still in it gets its middle.
			for idx := iv.a; idx <= iv.b; idx++ {
				out[idx-off] = mid
			}
			continue
		}
		c := SturmCount(d, e, mid)
		counts++
		// Eigenvalues a..min(b, c) lie in (lo, mid], the rest in (mid, hi].
		// Push the right half first so the left (smaller eigenvalues) is
		// processed next — deterministic LIFO order, bounded stack depth.
		if a2 := max(iv.a, c+1); a2 <= iv.b {
			if stebzDone(mid, iv.hi) {
				for idx := a2; idx <= iv.b; idx++ {
					out[idx-off] = 0.5 * (mid + iv.hi)
				}
			} else {
				stack = append(stack, stebzIval{lo: mid, hi: iv.hi, a: a2, b: iv.b, depth: iv.depth + 1})
			}
		}
		if b2 := min(iv.b, c); iv.a <= b2 {
			if stebzDone(iv.lo, mid) {
				for idx := iv.a; idx <= b2; idx++ {
					out[idx-off] = 0.5 * (iv.lo + mid)
				}
			} else {
				stack = append(stack, stebzIval{lo: iv.lo, hi: mid, a: iv.a, b: b2, depth: iv.depth + 1})
			}
		}
	}
	w.putStebzStack(stack)
	return counts
}
