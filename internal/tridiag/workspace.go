package tridiag

import (
	"sort"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// Work is the scratch of one task body, never held across bodies: each
// buffer is grown to the largest request and reused as is, so a Work serves
// any number of solves without allocating once it has seen the largest. A
// Work serves one task body at a time; every Work is a member of a WorkSet.
type Work struct {
	perm    []int
	partner []int
	kind    []uint8
	swapped []bool      // inverse iteration's pivot flags
	stebz   []stebzIval // bisection interval work-stack
	sortKey []float64   // deflate's copy of the children's values
	rot     []float64   // deflate's rule-2 rotations, (c, s) per column
	bpanel  []float64   // a merge tile's ragged-panel scratch
	lu      []float64   // inverse iteration's LU factors and iterate
	ework   []float64   // Steqr's n-length copy of e
	col     []float64   // Steqr's column buffer for the final sort

	permSort permSorter
}

// stebzStackBuf returns the (empty) bisection work-stack; putStebzStack
// hands it back so its grown capacity is retained across solves.
func (w *Work) stebzStackBuf() []stebzIval {
	if w.stebz == nil {
		w.stebz = make([]stebzIval, 0, 64)
	}
	return w.stebz[:0]
}

func (w *Work) putStebzStack(s []stebzIval) { w.stebz = s }

// grown returns (*buf)[:n] with unspecified contents, reallocating *buf when
// it is too short: retained storage only ever grows.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// permBuf, partnerBuf and kindBuf return the scratch of one deflation step,
// each of length n with unspecified contents; they are distinct because they
// are live simultaneously.

func (w *Work) permBuf(n int) []int { return grown(&w.perm, n) }

func (w *Work) partnerBuf(n int) []int { return grown(&w.partner, n) }

func (w *Work) kindBuf(n int) []uint8 { return grown(&w.kind, n) }

// swappedBuf returns steinCluster's zeroed pivot flags.
func (w *Work) swappedBuf(n int) []bool {
	b := grown(&w.swapped, n)
	clear(b)
	return b
}

// sortPerm sorts perm so that key[perm[i]] ascends. The sorter lives in the
// Work, so sort.Sort sees a pointer and nothing escapes.
func (w *Work) sortPerm(perm []int, key []float64) {
	w.permSort.perm, w.permSort.key = perm, key
	sort.Sort(&w.permSort)
	w.permSort.perm, w.permSort.key = nil, nil
}

// WorkSet is the retained workspace of the tridiagonal solvers: one Work per
// scheduler worker plus one for the submitting goroutine (which builds the
// task DAG — and runs the whole solve in inline mode — concurrently with
// worker 0, so it must not share worker 0's scratch), and the storage of the
// divide & conquer, laid out by its recursion tree as LAPACK's dlaed0 lays
// out its work arrays. Task bodies draw scratch from Worker(id) with the id
// the scheduler hands them; everything outside a task body uses Seq().
//
// The D&C of a root of order n works in three planes: z holds the bases, g
// the gathered columns of a merge and then its tiles' blocks of the secular
// eigenvector matrix, p the packed left factors. The node over [lo, hi), of
// order m = hi − lo, owns z[lo·n:] and g[lo·n:] for m² values (its basis is
// the m×m block of stride m there) and p[lo·s:hi·s] with s = ⌈ALen(n, n)/n⌉;
// its eigenvalues are dd[lo:hi] and its secular data entries [lo, hi) of the
// n-vectors. Each region lies inside [lo, hi) of its plane scaled by the
// plane's stride, so two regions overlap only for a node and its descendant,
// and the tree's dependences finish the descendant first: the planes need no
// lock, and nothing is handed back.
type WorkSet struct {
	works []*Work // [0, workers) per scheduler worker; last entry = Seq
	run   dcRun   // retained D&C DAG state (nodes, latch), reused per solve

	z, g, p                      []float64
	dd, ee                       []float64 // the tridiagonal, scaled; dd ends as the root's values
	dsec, zsec, mu, zhat, sorted []float64
	slot, base                   []int
	res                          matrix.Dense // the header of a result in z or g
}

// NewWorkSet returns a workspace serving the given scheduler width.
func NewWorkSet(workers int) *WorkSet {
	s := &WorkSet{}
	s.Grow(workers)
	return s
}

// Grow ensures the set serves at least the given scheduler width. Retained
// storage is kept; the Seq member stays last.
func (s *WorkSet) Grow(workers int) {
	if workers < 1 {
		return
	}
	for len(s.works) < workers+1 {
		s.works = append(s.works, &Work{})
	}
}

// Worker returns the member owned by the given scheduler worker.
func (s *WorkSet) Worker(i int) *Work { return s.works[i] }

// Seq returns the submitting goroutine's member; it also serves the whole
// solve on the inline (sequential) path.
func (s *WorkSet) Seq() *Work { return s.works[len(s.works)-1] }

// tridiag returns the set's copy slots for a tridiagonal of order n ≥ 1.
func (s *WorkSet) copySlots(n int) (dd, ee []float64) {
	return grown(&s.dd, n), grown(&s.ee, n-1)
}

// packedStride is s of the layout above: the p plane's values per index of
// a root of order n.
func packedStride(pk blas.Packing, n int) int { return (pk.ALen(n, n) + n - 1) / n }

// growDC grows the D&C's planes and vectors to a root of order n ≥ 1 packed
// under pk.
func (s *WorkSet) growDC(n int, pk blas.Packing) {
	grown(&s.z, n*n)
	grown(&s.g, n*n)
	grown(&s.p, n*packedStride(pk, n))
	s.copySlots(n)
	for _, v := range []*[]float64{&s.dsec, &s.zsec, &s.mu, &s.zhat, &s.sorted} {
		grown(v, n)
	}
	grown(&s.slot, n)
	grown(&s.base, n)
}

// result returns the r×c matrix of stride r at the start of data, in the
// set's one result header.
func (s *WorkSet) result(r, c int, data []float64) *matrix.Dense {
	s.res = matrix.Dense{Rows: r, Cols: c, Stride: max(1, r), Data: data[:r*c]}
	return &s.res
}

// PutVec does nothing: a result aliases the set and is valid until the next
// call on it (see StedcSched), so there is nothing to hand back. It stays
// only because the benchmark's traced pass still calls it.
func (s *WorkSet) PutVec([]float64) {}

// PutMat does nothing, like PutVec.
func (s *WorkSet) PutMat(*matrix.Dense) {}

// WorkspaceBytes reports the set's retained float storage (see
// work.WorkspaceSized): the planes and vectors. The per-body scratch of the
// members, O(n) each, is left out.
func (s *WorkSet) WorkspaceBytes() int64 {
	var b int
	for _, v := range [][]float64{s.z, s.g, s.p, s.dd, s.ee, s.dsec, s.zsec, s.mu, s.zhat, s.sorted} {
		b += cap(v)
	}
	return 8 * int64(b)
}

type permSorter struct {
	perm []int
	key  []float64
}

func (p *permSorter) Len() int           { return len(p.perm) }
func (p *permSorter) Less(i, j int) bool { return p.key[p.perm[i]] < p.key[p.perm[j]] }
func (p *permSorter) Swap(i, j int)      { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] }
