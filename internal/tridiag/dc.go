package tridiag

import (
	"math"
	"sort"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// dcBaseSize is the subproblem order below which divide & conquer falls back
// to QR iteration (LAPACK's SMLSIZ plays the same role).
const dcBaseSize = 32

// dcTileCols is the width of the column blocks of a rank-one merge's
// eigenvector update: one tile builds and multiplies this many columns of the
// secular eigenvector matrix. It is a function of nothing — in particular not
// of the worker count — and every output column is computed independently of
// its block, so the partition never shows in the results.
const dcTileCols = 64

// scaleT copies the tridiagonal (d, e) into (dd, ee) times the power of two
// that brings its largest entry into [1, 2), and returns the exponent that
// undoes it: the eigenvalues of T are math.Ldexp(λ, exp) for the eigenvalues
// λ of the copy, and the eigenvectors are the same. Like LAPACK's dstedc the
// D&C solves the scaled problem, because the secular equation divides by
// differences of eigenvalues and by weights squared, which for entries of
// order 1e±150 leave the floating-point range; unlike dstedc's division by
// the norm, a power of two changes no significand, so the scaling is exact
// both ways (short of entries 2¹⁰⁰⁰ below the largest, which it flushes and
// which were below every tolerance of the solver already).
func scaleT(dd, ee, d, e []float64) (exp int) {
	n := len(dd)
	tmax := maxAbs(d[:n], e[:len(ee)])
	if tmax == 0 || math.IsInf(tmax, 0) || math.IsNaN(tmax) {
		copy(dd, d)
		copy(ee, e)
		return 0
	}
	_, exp = math.Frexp(tmax) // tmax = f·2^exp, f ∈ [½, 1)
	exp--
	for i, v := range d[:n] {
		dd[i] = math.Ldexp(v, -exp)
	}
	for i, v := range e[:len(ee)] {
		ee[i] = math.Ldexp(v, -exp)
	}
	return exp
}

// dcSorted finishes a solve: the recursion returns its eigenpairs in merge
// order (each merge leaves its secular roots ahead of its deflated values and
// sorts nothing, because the merge above it sorts anyway), so they are
// sorted here, once, and the values scaled back by 2^exp. It consumes q and
// returns pool-owned results; vals is left to the caller.
func dcSorted(vals []float64, q *matrix.Dense, exp int, w *Work) ([]float64, *matrix.Dense) {
	n := len(vals)
	out := w.buf(n)
	if sort.Float64sAreSorted(vals) {
		for j, v := range vals {
			out[j] = math.Ldexp(v, exp)
		}
		return out, q
	}
	perm := w.permBuf(n)
	for i := range perm {
		perm[i] = i
	}
	w.sortPerm(perm, vals)
	qs := w.matBuf(n, n)
	for j, p := range perm {
		out[j] = math.Ldexp(vals[p], exp)
		copy(qs.Data[j*n:j*n+n], q.Data[p*q.Stride:p*q.Stride+n])
	}
	w.putMat(q)
	return out, qs
}

// dcRecurse solves the subproblem (d, e) destructively. The eigenvalues come
// back in no particular order (see dcSorted), in d itself or in a pool
// buffer; the returned matrix is always pool-owned.
func dcRecurse(d, e []float64, w *Work) ([]float64, *matrix.Dense, error) {
	n := len(d)
	if n == 0 {
		return nil, w.mat(0, 0), nil
	}
	if n <= dcBaseSize {
		z := w.eye(n)
		if err := Steqr(d, e, z, w); err != nil {
			return nil, nil, err
		}
		return d, z, nil
	}
	m := n / 2
	rho := e[m-1]
	if rho != 0 {
		// Rank-one tear: T = diag(T1', T2') + |rho|·u·uᵀ with u[m−1] = 1,
		// u[m] = sign(rho).
		d[m-1] -= math.Abs(rho)
		d[m] -= math.Abs(rho)
	}
	l1, q1, err := dcRecurse(d[:m], e[:m-1], w)
	if err != nil {
		return nil, nil, err
	}
	l2, q2, err := dcRecurse(d[m:], e[m:], w)
	if err != nil {
		return nil, nil, err
	}
	var vals []float64
	var q *matrix.Dense
	if rho == 0 {
		// The matrix is block diagonal.
		vals, q = dcDecoupled(l1, q1, l2, q2, w)
	} else {
		vals, q = dcMerge(l1, q1, l2, q2, rho, w)
	}
	recycleHalf(l1, d, w)
	recycleHalf(l2, d[m:], w)
	w.putMat(q1)
	w.putMat(q2)
	return vals, q, nil
}

// recycleHalf returns a child's value buffer to the pool unless it aliases
// the parent's d storage (the base case returns its input slice).
func recycleHalf(l, half []float64, w *Work) {
	if len(l) > 0 && &l[0] != &half[0] {
		w.putVec(l)
	}
}

// dcDecoupled builds the combined decomposition of a block-diagonal matrix
// (exact-zero coupling between the halves): the eigenvalues side by side, the
// bases on the diagonal.
func dcDecoupled(l1 []float64, q1 *matrix.Dense, l2 []float64, q2 *matrix.Dense, w *Work) ([]float64, *matrix.Dense) {
	m, n2 := len(l1), len(l2)
	n := m + n2
	vals := w.buf(n)
	copy(vals, l1)
	copy(vals[m:], l2)
	q := w.matBuf(n, n)
	for j := 0; j < n; j++ {
		gatherCol(q.Data[j*n:j*n+n], j, m, q1, q2)
	}
	return vals, q
}

// gatherCol writes column p of the block-diagonal basis diag(q1, q2) into
// col: the child's column in its half, exact zeros in the other.
func gatherCol(col []float64, p, m int, q1, q2 *matrix.Dense) {
	if p < m {
		copy(col[:m], q1.Data[p*q1.Stride:p*q1.Stride+m])
		clear(col[m:])
		return
	}
	p -= m
	clear(col[:m])
	copy(col[m:], q2.Data[p*q2.Stride:p*q2.Stride+len(col)-m])
}

// Column kinds of a merge, in dlaed2's sense: where a column of the
// block-diagonal basis has its nonzeros once deflation is done. The survivors
// enter the eigenvector update grouped by kind.
const (
	dcTop      uint8 = iota // survivor, nonzero only in the first child's rows
	dcDense                 // survivor that a rule-2 rotation mixed across the halves
	dcBottom                // survivor, nonzero only in the second child's rows
	dcDeflated              // its eigenpair is final; it takes no part in the update
)

// dcMergeState carries a rank-one merge
//
//	diag(T1, T2) + rho·z·zᵀ ,  z = [last row of Q1 ; sign·first row of Q2],
//
// through its steps, in the shape of LAPACK's dlaed2/dlaed3. pre does what
// comes before the eigenvector update: deflate sorts the poles, deflates, and
// gathers the surviving columns of diag(Q1, Q2) into the left factor of the
// update; secular solves the secular equation and rebuilds the weights its
// computed roots are exact for; and the left factor is packed for the
// micro-kernel, once for all tiles. tile then builds a block of columns of the
// secular eigenvector matrix S and multiplies it, and finish releases the
// scratch. The sequential dcMerge runs the steps back to back, the parallel
// D&C runs pre, the tiles and finish as tasks, and since every output column
// is computed by one tile, in an order no partition changes, both give the
// same bits.
//
// The k survivors are kept in two orders. The secular problem (dsec, zsec,
// the roots, zhat) is in ascending order of the poles. The columns of the left
// factor are grouped top | dense | bottom, each group in ascending order, and
// slot maps the first order to the second; the rows of S take the same
// permutation. Grouping is what makes the update half as expensive: the top
// rows of the left factor are zero in the bottom group's columns and the
// bottom rows in the top group's, the packed operand's skyline skips both, and
// the product costs ≈ n·k² flops instead of 2·n·k². The groups depend on the
// problem only.
//
// All scratch is sized by the node (n, n×n) and resliced to k, so a pool
// serves any number of different matrices with the same buffers.
type dcMergeState struct {
	n, m   int // node order, rows of the first child
	k      int // survivors
	k1, kd int // survivors of kind top and dense; k − k1 − kd are bottom
	rho    float64

	dsec, zsec []float64     // survivors' poles and weights
	slot       []int         // column of survivor i in qp
	qp         *matrix.Dense // columns [0, k): the left factor
	pk         blas.Packing
	pack       []float64 // qp[:, :k] packed under pk

	base  []int     // root j is dsec[base[j]] + mu[j]
	mu    []float64 //
	zhat  []float64 // the Löwner weights
	evals int       // evaluations of the secular function the k roots took,
	worst int       // and the most any one of them took

	vals []float64     // result: k roots, then the n−k deflated values
	q    *matrix.Dense // result basis, columns as vals
}

// dcMerge is the rank-one merge of two solved halves: it returns the
// eigenvalues (roots first, then deflated values — see dcSorted) and the basis
// of the merged problem. The children's buffers stay the caller's.
func dcMerge(l1 []float64, q1 *matrix.Dense, l2 []float64, q2 *matrix.Dense, rho float64, w *Work) ([]float64, *matrix.Dense) {
	var st dcMergeState
	st.pre(l1, q1, l2, q2, rho, w)
	for j0 := 0; j0 < st.k; j0 += dcTileCols {
		st.tile(j0, w)
	}
	return st.finish(w)
}

// pre runs the merge up to its eigenvector update.
func (st *dcMergeState) pre(l1 []float64, q1 *matrix.Dense, l2 []float64, q2 *matrix.Dense, rho float64, w *Work) {
	st.deflate(l1, q1, l2, q2, rho, w)
	if st.k > 0 {
		st.secular()
		// PackA records, per row panel, the column range outside which the
		// panel is zero — here the other half's group — and the kernels skip
		// it.
		st.pk.PackA(st.pack, blas.NoTrans, st.qp.Data, st.n, st.n, st.k)
	}
}

// deflate starts the merge of (l1, q1) and (l2, q2) coupled by rho ≠ 0. It
// sorts the poles, applies the two deflation rules of dlaed2, and gathers the
// columns of diag(q1, q2) straight to where they are used: a survivor into its
// group's next column of the left factor, a deflated column into the result,
// behind the k columns the update will write. The children are only read.
func (st *dcMergeState) deflate(l1 []float64, q1 *matrix.Dense, l2 []float64, q2 *matrix.Dense, rho float64, w *Work) {
	m, n := len(l1), len(l1)+len(l2)
	theta := 1.0
	if rho < 0 {
		theta, rho = -1, -rho
	}

	// Sort the poles; z follows them: z = [last row of q1 ; theta·first row
	// of q2].
	dv := w.buf(n)
	copy(dv, l1)
	copy(dv[m:], l2)
	perm := w.permBuf(n)
	for i := range perm {
		perm[i] = i
	}
	w.sortPerm(perm, dv)
	ds, zs := w.buf(n), w.buf(n)
	kind := w.kindBuf(n)
	var dmax, zmax float64
	for j, p := range perm {
		ds[j] = dv[p]
		if p < m {
			zs[j], kind[j] = q1.Data[m-1+p*q1.Stride], dcTop
		} else {
			zs[j], kind[j] = theta*q2.Data[(p-m)*q2.Stride], dcBottom
		}
		dmax = math.Max(dmax, math.Abs(ds[j]))
		zmax = math.Max(zmax, math.Abs(zs[j]))
	}
	w.putVec(dv)

	// Deflation, in the spirit of dlaed2. Rule 1: a negligible weight. Rule
	// 2: two poles closer than the tolerance — a rotation moves the weight of
	// the later one into the earlier and deflates it. The rotation also acts
	// on the two basis columns; that is done below, once they are in place,
	// from the partner and (c, s) recorded here.
	tol := 8 * Eps * math.Max(dmax, rho*zmax)
	partner := w.partnerBuf(n)
	cs := w.buf(2 * n)
	var cnt [dcDeflated + 1]int
	last := -1
	for i := 0; i < n; i++ {
		partner[i] = -1
		switch {
		case rho*math.Abs(zs[i]) <= tol:
			kind[i] = dcDeflated
		case last >= 0 && ds[i]-ds[last] <= tol:
			zl, zi := zs[last], zs[i]
			r := math.Hypot(zl, zi)
			c, s := zl/r, zi/r
			zs[last], zs[i] = r, 0
			// Diagonal drift stays inside [ds[last], ds[i]].
			dl, di := ds[last], ds[i]
			ds[last] = c*c*dl + s*s*di
			ds[i] = s*s*dl + c*c*di
			if kind[i] != kind[last] {
				kind[last] = dcDense
			}
			kind[i] = dcDeflated
			partner[i], cs[2*i], cs[2*i+1] = last, c, s
		default:
			last = i
		}
	}
	for _, kn := range kind {
		cnt[kn]++
	}
	k := n - cnt[dcDeflated]
	*st = dcMergeState{n: n, m: m, k: k, k1: cnt[dcTop], kd: cnt[dcDense], rho: rho}

	// Destination of every sorted column: survivors by group in [0, k) of
	// qp, deflated ones in [k, n) of the result.
	next := [dcDeflated + 1]int{dcTop: 0, dcDense: st.k1, dcBottom: st.k1 + st.kd, dcDeflated: k}
	st.slot = w.intVec(n)
	for j, kn := range kind {
		st.slot[j] = next[kn]
		next[kn]++
	}
	st.qp = w.matBuf(n, n)
	st.q = w.matBuf(n, n)
	st.vals = w.buf(n)
	colOf := func(j int) []float64 {
		c, dst := st.slot[j], st.qp
		if c >= k {
			dst = st.q
		}
		return dst.Data[c*n : c*n+n]
	}
	for j, p := range perm {
		col := colOf(j)
		gatherCol(col, p, m, q1, q2)
		if pj := partner[j]; pj >= 0 {
			// Q ← Q·Gᵀ on the pair rule 2 rotated.
			c, s := cs[2*j], cs[2*j+1]
			colL := colOf(pj)
			for i, l := range colL {
				v := col[i]
				colL[i] = c*l + s*v
				col[i] = -s*l + c*v
			}
		}
	}
	w.putVec(cs)

	// Compact the survivors' poles, weights and slots to the front (in
	// ascending order of the poles); a deflated pole is an eigenvalue.
	i := 0
	for j, kn := range kind {
		if kn == dcDeflated {
			st.vals[st.slot[j]] = ds[j]
			continue
		}
		ds[i], zs[i], st.slot[i] = ds[j], zs[j], st.slot[j]
		i++
	}
	st.dsec, st.zsec = ds, zs
	st.base = w.intVec(n)
	st.mu, st.zhat = w.buf(n), w.buf(n)
	st.pk = blas.CurrentPacking()
	st.pack = w.buf(st.pk.ALen(n, n))
}

// secular solves the secular equation for its k roots and rebuilds the
// weights from them (Gu–Eisenstat): ẑ is the vector for which the computed
// roots are the exact eigenvalues of diag(dsec) + rho·ẑ·ẑᵀ, so the
// eigenvectors tile builds from it are numerically orthogonal however accurate
// the roots are. λ_j − d_i is always formed as (d[base_j] − d_i) + mu_j.
func (st *dcMergeState) secular() {
	k := st.k
	dsec, zsec, base, mu := st.dsec[:k], st.zsec[:k], st.base[:k], st.mu[:k]
	for j := range mu {
		var evals int
		base[j], mu[j], evals = secularRoot(dsec, zsec, st.rho, j)
		st.vals[j] = dsec[base[j]] + mu[j]
		st.evals += evals
		st.worst = max(st.worst, evals)
	}
	for i, di := range dsec {
		// ẑ_i² = (λ_i − d_i) · Π_{j≠i} (λ_j − d_i)/(d_j − d_i).
		prod := (dsec[base[i]] - di) + mu[i]
		for j := 0; j < i; j++ {
			prod *= ((dsec[base[j]] - di) + mu[j]) / (dsec[j] - di)
		}
		for j := i + 1; j < k; j++ {
			prod *= ((dsec[base[j]] - di) + mu[j]) / (dsec[j] - di)
		}
		// Roundoff near a heavily deflated configuration can leave the
		// product below zero; clamp.
		st.zhat[i] = math.Copysign(math.Sqrt(math.Max(prod, 0)), zsec[i])
	}
}

// tile computes columns [j0, j0+dcTileCols) ∩ [0, k) of the update
// Q[:, :k] = qp[:, :k] · S. Column j of S is the eigenvector of the secular
// problem for root j, ẑ_i/(d_i − λ_j) normalised, with its rows in slot
// order; the block is built in scratch from w and multiplied by the packed
// left factor straight into the result.
func (st *dcMergeState) tile(j0 int, w *Work) {
	n, k := st.n, st.k
	j1 := min(j0+dcTileCols, k)
	if j0 >= j1 {
		return
	}
	cols := j1 - j0
	dsec, zhat, slot := st.dsec[:k], st.zhat[:k], st.slot[:k]
	// Sized by the node, ragged-panel scratch included, so that the pool
	// sees one size per node whatever k is.
	scratch := w.buf(n*dcTileCols + st.pk.BScratch(n, 1))
	s := scratch[:k*cols]
	for j := j0; j < j1; j++ {
		col := s[(j-j0)*k : (j-j0+1)*k]
		db, mu := dsec[st.base[j]], st.mu[j]
		for i, zi := range zhat {
			col[slot[i]] = zi / ((dsec[i] - db) - mu)
		}
		blas.Dscal(k, 1/blas.Dnrm2(k, col, 1), col, 1)
	}
	c := st.q.Data[j0*n : j1*n]
	clear(c)
	st.pk.GemmPackedA(n, cols, k, st.pack, s, k, c, n, scratch[n*dcTileCols:])
	w.putVec(scratch)
}

// gemmFlops is the flops tile spends multiplying cols columns: the top rows
// meet the top and dense groups, the bottom rows the dense and bottom ones.
func (st *dcMergeState) gemmFlops(cols int) int64 {
	top := int64(st.m) * int64(st.k1+st.kd)
	bottom := int64(st.n-st.m) * int64(st.k-st.k1)
	return 2 * int64(cols) * (top + bottom)
}

// finish releases the merge's scratch and returns its result. The counts (n,
// m, k, k1, kd, evals, worst) stay in st for whoever reports on the merge.
func (st *dcMergeState) finish(w *Work) ([]float64, *matrix.Dense) {
	w.putVec(st.dsec)
	w.putVec(st.zsec)
	w.putVec(st.mu)
	w.putVec(st.zhat)
	w.putVec(st.pack)
	w.putIntVec(st.slot)
	w.putIntVec(st.base)
	w.putMat(st.qp)
	vals, q := st.vals, st.q
	*st = dcMergeState{n: st.n, m: st.m, k: st.k, k1: st.k1, kd: st.kd, evals: st.evals, worst: st.worst}
	return vals, q
}
