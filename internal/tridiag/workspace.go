package tridiag

import (
	"sort"
	"sync"

	"repro/internal/matrix"
)

// Work is a retained scratch pool for the tridiagonal eigensolvers. The
// divide & conquer recursion allocates a deterministic population of
// vectors and matrices per problem size; pooling them (plus the sort and
// permutation scratch) makes repeated solves of the same size allocation-
// free in steady state, which is what the reusable Solver's workspace arena
// needs from this layer.
//
// Buffers are keyed by their full length, and a caller that needs k ≤ n
// values of a size only known at run time — the merge's survivor count —
// asks for n and reslices: the population of a pool is then a function of the
// problem order and the D&C cutoff (and, through how many nodes are in
// flight at once, the worker count) alone, however many different matrices
// it serves.
//
// A Work serves one task body at a time; every Work is a member of a WorkSet.
type Work struct {
	free *freeLists

	// Scratch of one task body, never held across bodies.
	perm    []int
	partner []int
	kind    []uint8
	swapped []bool      // inverse iteration's pivot flags
	stebz   []stebzIval // bisection interval work-stack

	permSort permSorter
}

// freeLists holds the pooled buffers of a Work, or of all the members of a
// WorkSet. A D&C buffer is taken by the task that starts a merge and put back
// by the one that ends it, or by the merge above, on whichever workers those
// run: with a free list per worker the buffers drift to the lists that only
// receive (the submitting goroutine's, which gets every result back) while
// the others allocate anew, solve after solve. One list under a lock has no
// such drift, and the lock is taken a few hundred times per solve.
type freeLists struct {
	mu   sync.Mutex
	vecs map[int][][]float64     // free float buffers, keyed by full length (= cap)
	mats map[int][]*matrix.Dense // free matrices, keyed by len(Data)
	ints map[int][][]int         // free int buffers, keyed by full length (= cap)
}

func newFreeLists() *freeLists {
	return &freeLists{
		vecs: make(map[int][][]float64),
		mats: make(map[int][]*matrix.Dense),
		ints: make(map[int][][]int),
	}
}

// bytes is the retained float storage. The D&C matrices dominate; the int
// buffers and the per-body scratch are ignored.
func (f *freeLists) bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b int64
	for _, l := range f.vecs {
		for _, v := range l {
			b += int64(cap(v)) * 8
		}
	}
	for _, l := range f.mats {
		for _, m := range l {
			b += int64(cap(m.Data)) * 8
		}
	}
	return b
}

// pop and push are the two operations of a free list keyed by size.
func pop[T any](mu *sync.Mutex, lists map[int][]T, key int) (v T, ok bool) {
	mu.Lock()
	defer mu.Unlock()
	l := lists[key]
	if len(l) == 0 {
		return v, false
	}
	v = l[len(l)-1]
	lists[key] = l[:len(l)-1]
	return v, true
}

func push[T any](mu *sync.Mutex, lists map[int][]T, key int, v T) {
	mu.Lock()
	lists[key] = append(lists[key], v)
	mu.Unlock()
}

// vec returns a zeroed float buffer of exactly length n.
func (w *Work) vec(n int) []float64 {
	b := w.buf(n)
	clear(b)
	return b
}

// buf is vec without the clearing, for a buffer its caller overwrites in
// full: a pooled buffer comes back with whatever its last user left in it.
func (w *Work) buf(n int) []float64 {
	if b, ok := pop(&w.free.mu, w.free.vecs, n); ok {
		return b
	}
	return make([]float64, n)
}

// putVec returns a buffer obtained from vec or buf to the pool, at its full
// length even when the caller holds a shorter reslice of it. Never put a
// slice that aliases live data (e.g. a sub-slice of a caller's array).
func (w *Work) putVec(b []float64) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	push(&w.free.mu, w.free.vecs, len(b), b)
}

// mat returns a zeroed r×c matrix (Stride == r), reusing a pooled header
// and backing array of the same element count when available.
func (w *Work) mat(r, c int) *matrix.Dense {
	m := w.matBuf(r, c)
	clear(m.Data)
	return m
}

// matBuf is mat without the clearing (see buf).
func (w *Work) matBuf(r, c int) *matrix.Dense {
	if r*c != 0 {
		if m, ok := pop(&w.free.mu, w.free.mats, r*c); ok {
			m.Rows, m.Cols, m.Stride = r, c, r
			return m
		}
	}
	return matrix.NewDense(r, c)
}

// putMat returns a matrix obtained from mat to the pool.
func (w *Work) putMat(m *matrix.Dense) {
	if m == nil || len(m.Data) == 0 {
		return
	}
	push(&w.free.mu, w.free.mats, len(m.Data), m)
}

// intVec returns an int buffer of exactly length n with unspecified contents.
// Unlike the per-body scratch below, these buffers may be held across task
// boundaries (a merge's root origins and group permutation live from its
// first task to its last), so they are pooled like vec/mat.
func (w *Work) intVec(n int) []int {
	if b, ok := pop(&w.free.mu, w.free.ints, n); ok {
		return b
	}
	return make([]int, n)
}

// putIntVec returns a buffer obtained from intVec to the pool, at its full
// length like putVec.
func (w *Work) putIntVec(b []int) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	push(&w.free.mu, w.free.ints, len(b), b)
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

// eye returns the n×n identity from the pool.
func (w *Work) eye(n int) *matrix.Dense {
	m := w.mat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i+i*m.Stride] = 1
	}
	return m
}

// grown returns (*buf)[:n] with unspecified contents, reallocating *buf when
// it is too short: the per-body scratch of a Work only ever grows.
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

// WorkSet is the parallel-solve extension of Work: one Work per scheduler
// worker plus one for the submitting goroutine (which builds the task DAG —
// and runs the whole solve in inline mode — concurrently with worker 0, so
// it must not share worker 0's per-body scratch). Task bodies draw scratch
// from Worker(id) with the id the scheduler hands them; everything outside a
// task body uses Seq(). The members share one set of free lists (see
// freeLists), so a buffer may be taken through one member and put back
// through another; the scheduler's lock orders a buffer's last write before
// its next reuse.
type WorkSet struct {
	free  *freeLists
	works []*Work // [0, workers) per scheduler worker; last entry = Seq
	run   dcRun   // retained D&C DAG state (nodes, latch), reused per solve
}

// NewWorkSet returns a pool set serving the given scheduler width.
func NewWorkSet(workers int) *WorkSet {
	s := &WorkSet{free: newFreeLists()}
	s.Grow(workers)
	return s
}

// Grow ensures the set serves at least the given scheduler width. Retained
// buffers are kept; the Seq member stays last.
func (s *WorkSet) Grow(workers int) {
	if workers < 1 {
		return
	}
	for len(s.works) < workers+1 {
		s.works = append(s.works, &Work{free: s.free})
	}
}

// Worker returns the member owned by the given scheduler worker.
func (s *WorkSet) Worker(i int) *Work { return s.works[i] }

// Seq returns the submitting goroutine's member; it also serves the whole
// solve on the inline (sequential) path.
func (s *WorkSet) Seq() *Work { return s.works[len(s.works)-1] }

// PutVec hands a vector returned by a solver (e.g. StedcSched's eigenvalues)
// back to the set once the caller has copied what it needs.
func (s *WorkSet) PutVec(b []float64) { s.Seq().putVec(b) }

// PutMat hands a matrix returned by a solver (e.g. StedcSched's eigenvector
// basis) back to the set once the caller has copied what it needs.
func (s *WorkSet) PutMat(m *matrix.Dense) { s.Seq().putMat(m) }

// WorkspaceBytes reports the set's retained float storage (see
// work.WorkspaceSized).
func (s *WorkSet) WorkspaceBytes() int64 { return s.free.bytes() }

type permSorter struct {
	perm []int
	key  []float64
}

func (p *permSorter) Len() int           { return len(p.perm) }
func (p *permSorter) Less(i, j int) bool { return p.key[p.perm[i]] < p.key[p.perm[j]] }
func (p *permSorter) Swap(i, j int)      { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] }
