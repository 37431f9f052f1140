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

// Regions of the node over [lo, hi) in the planes (see WorkSet): its basis,
// its gather and tile scratch, and room for its packed left factor.

func (r *dcRun) basis(lo, hi int) []float64  { return r.ws.z[lo*r.n:][:(hi-lo)*(hi-lo)] }
func (r *dcRun) gather(lo, hi int) []float64 { return r.ws.g[lo*r.n:][:(hi-lo)*(hi-lo)] }
func (r *dcRun) packed(lo, hi int) []float64 { return r.ws.p[lo*r.ps : hi*r.ps] }

// sorted finishes a solve: the recursion leaves the root's eigenpairs in
// merge order (each merge leaves its secular roots ahead of its deflated
// values and sorts nothing, because the merge above it sorts anyway), so they
// are sorted here, once, and the values scaled back by 2^exp. The values go to
// the set's sorted vector; the basis stays in z when the values came out
// sorted, and is permuted into g otherwise.
func (r *dcRun) sorted(exp int, w *Work) ([]float64, *matrix.Dense) {
	n := r.n
	vals, q := r.dd[:n], r.basis(0, n)
	out := r.ws.sorted[:n]
	if sort.Float64sAreSorted(vals) {
		for j, v := range vals {
			out[j] = math.Ldexp(v, exp)
		}
		return out, r.ws.result(n, n, q)
	}
	perm := w.permBuf(n)
	for i := range perm {
		perm[i] = i
	}
	w.sortPerm(perm, vals)
	qs := r.gather(0, n)
	for j, p := range perm {
		out[j] = math.Ldexp(vals[p], exp)
		copy(qs[j*n:j*n+n], q[p*n:p*n+n])
	}
	return out, r.ws.result(n, n, qs)
}

// recurse solves the node over [lo, hi) by the plain recursion, in place: its
// eigenvalues land in dd[lo:hi], in no particular order (see sorted), and its
// basis in its region of z.
func (r *dcRun) recurse(lo, hi int, w *Work) error {
	n := hi - lo
	if n <= dcBaseSize {
		z := r.basis(lo, hi)
		clear(z)
		for i := 0; i < n; i++ {
			z[i+i*n] = 1
		}
		return Steqr(r.dd[lo:hi], r.ee[lo:hi-1], &matrix.Dense{Rows: n, Cols: n, Stride: n, Data: z}, w)
	}
	mid := lo + n/2
	rho := r.ee[mid-1]
	if rho != 0 {
		// Rank-one tear: T = diag(T1', T2') + |rho|·u·uᵀ with u[mid−1] = 1,
		// u[mid] = sign(rho).
		r.dd[mid-1] -= math.Abs(rho)
		r.dd[mid] -= math.Abs(rho)
	}
	if err := r.recurse(lo, mid, w); err != nil {
		return err
	}
	if err := r.recurse(mid, hi, w); err != nil {
		return err
	}
	if rho == 0 {
		// The matrix is block diagonal.
		r.decoupled(lo, mid, hi)
		return nil
	}
	var st dcMergeState
	st.pre(r, lo, mid, hi, rho, w)
	for j0 := 0; j0 < st.k; j0 += dcTileCols {
		st.tile(j0, w)
	}
	return nil
}

// decoupled combines the solved halves [lo, mid) and [mid, hi) of a
// block-diagonal matrix (exact-zero coupling between them): the eigenvalues
// are already side by side in dd, and the basis is diag(Q1, Q2), assembled in
// g because it overwrites the children's bases in z.
func (r *dcRun) decoupled(lo, mid, hi int) {
	n, m := hi-lo, mid-lo
	q1, q2, g := r.basis(lo, mid), r.basis(mid, hi), r.gather(lo, hi)
	for j := 0; j < n; j++ {
		gatherCol(g[j*n:j*n+n], j, m, q1, q2)
	}
	copy(r.basis(lo, hi), g)
}

// gatherCol writes column p of the block-diagonal basis diag(q1, q2) into
// col: the child's column in its half, exact zeros in the other. q1 has
// order m, q2 order len(col) − m, each of stride its order.
func gatherCol(col []float64, p, m int, q1, q2 []float64) {
	if p < m {
		copy(col[:m], q1[p*m:p*m+m])
		clear(col[m:])
		return
	}
	m2 := len(col) - m
	p -= m
	clear(col[:m])
	copy(col[m:], q2[p*m2:p*m2+m2])
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
// gathers the columns of diag(Q1, Q2) into the node's g region, the surviving
// ones first as the left factor of the update; secular solves the secular
// equation and rebuilds the weights its computed roots are exact for; the
// left factor is packed for the micro-kernel, once for all tiles; and the
// deflated columns go to the node's basis. tile then builds a block of
// columns of the secular eigenvector matrix S and multiplies it. The
// sequential recursion runs the steps back to back, the parallel D&C runs pre
// and the tiles as tasks, and since every output column is computed by one
// tile, in an order no partition changes, both give the same bits.
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
type dcMergeState struct {
	n, m   int // node order, rows of the first child
	k      int // survivors
	k1, kd int // survivors of kind top and dense; k − k1 − kd are bottom
	rho    float64

	dsec, zsec []float64 // survivors' poles and weights
	slot       []int     // column of survivor i in g
	g          []float64 // the node's g region: the gathered columns, then S
	pk         blas.Packing
	pack       []float64 // g[:, :k] packed under pk

	base  []int     // root j is dsec[base[j]] + mu[j]
	mu    []float64 //
	zhat  []float64 // the Löwner weights
	evals int       // evaluations of the secular function the k roots took,
	worst int       // and the most any one of them took

	vals []float64 // dd[lo:hi]: k roots, then the n−k deflated values
	q    []float64 // the node's basis, columns as vals
}

// pre runs the merge of the solved halves [lo, mid) and [mid, hi), coupled by
// rho ≠ 0, up to its eigenvector update.
func (st *dcMergeState) pre(r *dcRun, lo, mid, hi int, rho float64, w *Work) {
	st.deflate(r, lo, mid, hi, rho, w)
	n, k := st.n, st.k
	if k > 0 {
		st.secular()
		// PackA records, per row panel, the column range outside which the
		// panel is zero — here the other half's group — and the kernels skip
		// it.
		st.pk.PackA(st.pack, blas.NoTrans, st.g, n, n, k)
	}
	copy(st.q[k*n:], st.g[k*n:])
}

// deflate sorts the poles, applies the two deflation rules of dlaed2, and
// gathers the columns of diag(Q1, Q2) into g, a survivor into its group's
// next column of the left factor and a deflated column behind the k
// survivors. The children's bases are only read; their values are read from a
// copy, because the node's values take their place in dd.
func (st *dcMergeState) deflate(r *dcRun, lo, mid, hi int, rho float64, w *Work) {
	m, n := mid-lo, hi-lo
	q1, q2 := r.basis(lo, mid), r.basis(mid, hi)
	theta := 1.0
	if rho < 0 {
		theta, rho = -1, -rho
	}

	// Sort the poles; z follows them: z = [last row of q1 ; theta·first row
	// of q2].
	dv := grown(&w.sortKey, n)
	copy(dv, r.dd[lo:hi])
	perm := w.permBuf(n)
	for i := range perm {
		perm[i] = i
	}
	w.sortPerm(perm, dv)
	ds, zs := r.ws.dsec[lo:hi], r.ws.zsec[lo:hi]
	kind := w.kindBuf(n)
	var dmax, zmax float64
	for j, p := range perm {
		ds[j] = dv[p]
		if p < m {
			zs[j], kind[j] = q1[m-1+p*m], dcTop
		} else {
			zs[j], kind[j] = theta*q2[(p-m)*(n-m)], dcBottom
		}
		dmax = math.Max(dmax, math.Abs(ds[j]))
		zmax = math.Max(zmax, math.Abs(zs[j]))
	}

	// Deflation, in the spirit of dlaed2. Rule 1: a negligible weight. Rule
	// 2: two poles closer than the tolerance — a rotation moves the weight of
	// the later one into the earlier and deflates it. The rotation also acts
	// on the two basis columns; that is done below, once they are in place,
	// from the partner and (c, s) recorded here.
	tol := 8 * Eps * math.Max(dmax, rho*zmax)
	partner := w.partnerBuf(n)
	cs := grown(&w.rot, 2*n)
	var cnt [dcDeflated + 1]int
	last := -1
	for i := 0; i < n; i++ {
		partner[i] = -1
		switch {
		case rho*math.Abs(zs[i]) <= tol:
			kind[i] = dcDeflated
		case last >= 0 && ds[i]-ds[last] <= tol:
			zl, zi := zs[last], zs[i]
			h := math.Hypot(zl, zi)
			c, s := zl/h, zi/h
			zs[last], zs[i] = h, 0
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

	// Column of every sorted column in g: survivors by group in [0, k),
	// deflated ones in [k, n).
	next := [dcDeflated + 1]int{dcTop: 0, dcDense: st.k1, dcBottom: st.k1 + st.kd, dcDeflated: k}
	st.slot = r.ws.slot[lo:hi]
	for j, kn := range kind {
		st.slot[j] = next[kn]
		next[kn]++
	}
	st.g = r.gather(lo, hi)
	for j, p := range perm {
		col := st.g[st.slot[j]*n:][:n]
		gatherCol(col, p, m, q1, q2)
		if pj := partner[j]; pj >= 0 {
			// Q ← Q·Gᵀ on the pair rule 2 rotated.
			c, s := cs[2*j], cs[2*j+1]
			colL := st.g[st.slot[pj]*n:][:n]
			for i, l := range colL {
				v := col[i]
				colL[i] = c*l + s*v
				col[i] = -s*l + c*v
			}
		}
	}

	// Compact the survivors' poles, weights and slots to the front (in
	// ascending order of the poles); a deflated pole is an eigenvalue.
	st.vals = r.dd[lo:hi]
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
	st.base = r.ws.base[lo:hi]
	st.mu, st.zhat = r.ws.mu[lo:hi], r.ws.zhat[lo:hi]
	st.pk = r.pk
	st.pack = r.packed(lo, hi)[:st.pk.ALen(n, n)]
	st.q = r.basis(lo, hi)
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
// Q[:, :k] = G[:, :k] · S. Column j of S is the eigenvector of the secular
// problem for root j, ẑ_i/(d_i − λ_j) normalised, with its rows in slot
// order; the block is built in g, whose columns pre has packed or moved, at
// the tile's own offset, and multiplied by the packed left factor straight
// into the basis.
func (st *dcMergeState) tile(j0 int, w *Work) {
	n, k := st.n, st.k
	j1 := min(j0+dcTileCols, k)
	if j0 >= j1 {
		return
	}
	cols := j1 - j0
	dsec, zhat, slot := st.dsec[:k], st.zhat[:k], st.slot[:k]
	s := st.g[j0*k : j1*k]
	for j := j0; j < j1; j++ {
		col := s[(j-j0)*k : (j-j0+1)*k]
		db, mu := dsec[st.base[j]], st.mu[j]
		for i, zi := range zhat {
			col[slot[i]] = zi / ((dsec[i] - db) - mu)
		}
		blas.Dscal(k, 1/blas.Dnrm2(k, col, 1), col, 1)
	}
	c := st.q[j0*n : j1*n]
	clear(c)
	// The ragged-panel scratch is sized by the node, not by k, so that a
	// Work's scratch depends on the tree alone.
	st.pk.GemmPackedA(n, cols, k, st.pack, s, k, c, n, grown(&w.bpanel, st.pk.BScratch(n, 1)))
}

// gemmFlops is the flops tile spends multiplying cols columns: the top rows
// meet the top and dense groups, the bottom rows the dense and bottom ones.
func (st *dcMergeState) gemmFlops(cols int) int64 {
	top := int64(st.m) * int64(st.k1+st.kd)
	bottom := int64(st.n-st.m) * int64(st.k-st.k1)
	return 2 * int64(cols) * (top + bottom)
}
