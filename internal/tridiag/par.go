// Scheduler-parallel entry points of the tridiagonal eigensolvers. Each
// *Sched function is bitwise identical at every worker count to the same
// function on an inline (or nil) job, which runs its bodies on the calling
// goroutine:
//
//   - StedcSched executes Cuppen's recursion as a flat task DAG: subtrees
//     below a cutoff are one sequential task each, and every rank-one merge
//     above it splits into a pre task (deflation, the left factor of the
//     eigenvector update gathered by group and packed, the secular roots, the
//     Löwner rebuild), one GEMM tile task per dcTileCols columns (each builds
//     its columns of the secular eigenvector matrix and multiplies them), and
//     a finish task that orders the parent after the tiles. Determinism: the
//     tree shape and the rank-one tears depend only on the problem; so do
//     deflation and the grouping of the survivors; tile widths depend on
//     nothing; distinct tasks write disjoint outputs; and every column of the
//     update is computed independently of its tile, so any column partition
//     is bitwise neutral (pinned by tests against the whole problem solved as
//     one leaf, which is the plain recursion).
//
//   - StebzSched partitions the index range into fixed-width chunks; each
//     chunk refines its eigenvalues with the shared-Sturm-count bracket
//     splitting of stebzInto, whose per-eigenvalue midpoint sequence is
//     independent of the chunking.
//
//   - SteinSched runs one task per reorthogonalization cluster; clusters
//     are independent by construction (disjoint output columns, cluster-
//     local MGS and PRNG seed) and the within-cluster iteration stays
//     sequential.
//
// Task bodies draw scratch from per-worker Work members of a WorkSet, and the
// D&C works in the set's planes, so repeat solves on one WorkSet reach an
// allocation-free steady state on the inline path.
package tridiag

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// dcParCutoff is the subtree size at or below which the D&C runs the whole
// subtree as one sequential leaf task (values below dcBaseSize are treated
// as dcBaseSize). A variable for tests: it tunes task granularity only, the
// recursion tree — and so every floating-point operation — is unchanged, and
// any cutoff produces bitwise identical results.
var dcParCutoff = 64

// errLatch is the shared failure flag of a task DAG: the first error wins,
// later tasks observe failed() and skip their bodies.
type errLatch struct {
	flag atomic.Bool
	mu   sync.Mutex
	err  error
}

func (l *errLatch) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
		l.flag.Store(true)
	}
	l.mu.Unlock()
}

func (l *errLatch) failed() bool { return l.flag.Load() }

func (l *errLatch) get() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *errLatch) reset() {
	l.mu.Lock()
	l.err = nil
	l.flag.Store(false)
	l.mu.Unlock()
}

// dcNode is one node of the explicit recursion tree built above the cutoff.
// Leaves (left < 0) cover a whole subtree and run the plain recursion
// sequentially; internal nodes are decoupled (rho == 0) or rank-one merges.
// A node's results are in its regions of the set's planes (see WorkSet).
type dcNode struct {
	lo, hi      int // half-open index range in (dd, ee)
	left, right int // child node indices; -1 at leaves
	depth       int
	rho         float64 // e[mid-1]: the coupling of a rank-one tear, 0 if decoupled

	st dcMergeState // rank-one merge state; its counts outlive the merge
}

// dcRun is the per-solve state of the D&C, DAG or plain recursion; it is
// retained inside the WorkSet so steady-state solves build the tree with zero
// allocations on the inline path.
type dcRun struct {
	ws     *WorkSet
	job    *sched.Job
	tc     *trace.Collector
	n, ps  int          // root order and the p plane's stride (see WorkSet)
	pk     blas.Packing // the layout the merges pack under
	dd, ee []float64    // the tridiagonal, scaled (see scaleT); dd ends as the values
	nodes  []dcNode
	latch  errLatch
}

// reset starts a solve of order n ≥ 1, growing the set's planes to it.
func (r *dcRun) reset(ws *WorkSet, job *sched.Job, tc *trace.Collector, n int) {
	r.pk = blas.CurrentPacking()
	ws.growDC(n, r.pk)
	r.ws, r.job, r.tc = ws, job, tc
	r.n, r.ps = n, packedStride(r.pk, n)
	r.dd, r.ee = ws.copySlots(n)
	r.nodes = r.nodes[:0]
	r.latch.reset()
}

// build constructs the tree over dd[lo:hi] and applies the rank-one tears of
// every above-cutoff node in pre-order — exactly the order the sequential
// recursion subtracts them, including when an ancestor tear and a deeper
// tear hit the same entry — so the leaf tasks see bitwise identical
// subproblems. Returns the node index.
func (r *dcRun) build(lo, hi, depth, cutoff int) int {
	i := len(r.nodes)
	r.nodes = append(r.nodes, dcNode{lo: lo, hi: hi, depth: depth, left: -1, right: -1})
	if hi-lo <= cutoff {
		return i
	}
	m := lo + (hi-lo)/2
	if rho := r.ee[m-1]; rho != 0 {
		// Rank-one tear (see recurse): T = diag(T1', T2') + |rho|·u·uᵀ.
		r.dd[m-1] -= math.Abs(rho)
		r.dd[m] -= math.Abs(rho)
		r.nodes[i].rho = rho
	}
	l := r.build(lo, m, depth+1, cutoff)
	rt := r.build(m, hi, depth+1, cutoff)
	r.nodes[i].left, r.nodes[i].right = l, rt
	return i
}

// Resource IDs: node i's result is resource i; a rank-one node's merge
// state is resource len(nodes)+i. Tile tasks read the merge state; the finish
// task read-writes it, which orders it after every tile (write-after-read),
// and writes the node's result, which orders the parent after it.
func (r *dcRun) resNode(i int) int  { return i }
func (r *dcRun) resMerge(i int) int { return len(r.nodes) + i }

// leafBody solves a whole subtree sequentially with the plain recursion.
func (r *dcRun) leafBody(i int, wk *Work) {
	if r.latch.failed() {
		return
	}
	nd := &r.nodes[i]
	if err := r.recurse(nd.lo, nd.hi, wk); err != nil {
		r.latch.fail(err)
		return
	}
	r.tc.AttributeFlops(trace.PhaseEigTRecurse, dcRecurseFlops(nd.hi-nd.lo))
}

// decoupledBody combines two children across an exact-zero coupling.
func (r *dcRun) decoupledBody(i int) {
	if r.latch.failed() {
		return
	}
	nd := &r.nodes[i]
	r.decoupled(nd.lo, r.nodes[nd.left].hi, nd.hi)
}

// preBody and tileBody are the steps of a rank-one node's merge (see
// dcMergeState). Tiles beyond the (deflation-dependent) k are no-ops, so the
// task count can be fixed at submission time from the node size alone.

func (r *dcRun) preBody(i int, wk *Work) {
	if r.latch.failed() {
		return
	}
	nd := &r.nodes[i]
	nd.st.pre(r, nd.lo, r.nodes[nd.left].hi, nd.hi, nd.rho, wk)
	r.tc.AttributeFlops(trace.PhaseEigTMerge, dcSecularFlops(nd.st.k, nd.st.evals))
}

func (r *dcRun) tileBody(i, t int, wk *Work) {
	if r.latch.failed() {
		return
	}
	st := &r.nodes[i].st
	j0 := t * dcTileCols
	if j0 >= st.k {
		return
	}
	st.tile(j0, wk)
	r.tc.AttributeFlops(trace.PhaseEigTMerge, st.gemmFlops(min(dcTileCols, st.k-j0)))
}

// tileCount is the fixed number of GEMM tile tasks of a node of size n
// (covering the worst case k = n; see tileBody).
func tileCount(n int) int { return (n + dcTileCols - 1) / dcTileCols }

// submitNode submits the subtree rooted at node i in post-order. The DAG is
// flat: every task is submitted up front from the calling goroutine and
// ordered purely by resource dependences, so no task ever blocks on another
// from inside a worker (which would deadlock the pool).
func (r *dcRun) submitNode(i int) {
	nd := &r.nodes[i]
	submit := func(name string, run func(worker int), deps ...sched.Dep) {
		r.job.Submit(sched.Task{Name: name, Priority: nd.depth, Deps: deps, Run: run})
	}
	if nd.left < 0 {
		submit("dc.leaf", func(worker int) { r.leafBody(i, r.ws.Worker(worker)) }, sched.RW(r.resNode(i)))
		return
	}
	r.submitNode(nd.left)
	r.submitNode(nd.right)
	ldep := sched.R(r.resNode(nd.left))
	rdep := sched.R(r.resNode(nd.right))
	if nd.rho == 0 {
		submit("dc.decoupled", func(int) { r.decoupledBody(i) },
			ldep, rdep, sched.RW(r.resNode(i)))
		return
	}
	submit("dc.merge.pre", func(worker int) { r.preBody(i, r.ws.Worker(worker)) },
		ldep, rdep, sched.RW(r.resMerge(i)))
	for t := 0; t < tileCount(nd.hi-nd.lo); t++ {
		submit("dc.merge.gemm", func(worker int) { r.tileBody(i, t, r.ws.Worker(worker)) },
			sched.R(r.resMerge(i)))
	}
	// The finish task has no body: it only orders the parent after the tiles.
	submit("dc.merge.finish", func(int) {}, sched.RW(r.resMerge(i)), sched.RW(r.resNode(i)))
}

// runInline executes the same bodies in dependence order on the calling
// goroutine, checking cancellation between bodies. This closure-free path
// keeps sequential solves allocation-free (the Submit path allocates a task
// and deps per node, which is fine on a worker pool but would break the
// steady-state allocation gate of sequential Solver reuse).
func (r *dcRun) runInline(i int) {
	if r.job.Canceled() || r.latch.failed() {
		return
	}
	nd := &r.nodes[i]
	if nd.left < 0 {
		r.leafBody(i, r.ws.Seq())
		return
	}
	r.runInline(nd.left)
	r.runInline(nd.right)
	if r.job.Canceled() || r.latch.failed() {
		return
	}
	if nd.rho == 0 {
		r.decoupledBody(i)
		return
	}
	wk := r.ws.Seq()
	r.preBody(i, wk)
	for t := 0; t < tileCount(nd.hi-nd.lo); t++ {
		if r.job.Canceled() {
			return
		}
		r.tileBody(i, t, wk)
	}
}

// dcRecurseFlops and dcSecularFlops are the attribution models of the eig_t
// sub-phases (bookkeeping only — the kernels count real flops by class). A
// sequential subtree is bounded by QR-style 6n³. A merge's secular work is
// what it did: each of the evals evaluations of the secular function the root
// finder made costs 8 flops per pole (two subtractions, a division, the terms
// of f, f′ and the error bound), and the Löwner rebuild (5 per pair) and the
// eigenvector matrix (3 per entry to form, 3 to normalise) are 11·k² more.
func dcRecurseFlops(n int) int64 {
	nn := int64(n)
	return 6 * nn * nn * nn
}

func dcSecularFlops(k, evals int) int64 {
	kk := int64(k)
	return 8*int64(evals)*kk + 11*kk*kk
}

// StedcSched computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix (d, e) by Cuppen's divide-and-conquer method with
// deflation and Gu–Eisenstat stabilized eigenvector construction (the
// "EVD/D&C" method of the paper's Table 1), over a scheduler job: the
// recursion's independent halves run as concurrent tasks down to
// dcParCutoff and every larger rank-one merge tiles its eigenvector-update
// GEMM into per-column-block tasks (see the package comment of this file for
// the determinism argument). With an inline (or nil) job the same bodies run
// sequentially on the calling goroutine, so there is exactly one code path to
// trust. Inputs are not modified.
//
// It returns the eigenvalues in ascending order and an orthogonal matrix Q
// with T = Q·diag(vals)·Qᵀ, bitwise the same at any worker count. Both alias
// ws and stay valid until the next call on it: a caller that keeps them
// copies them. On error, including cancellation of the job, nothing is
// returned and ws stays as it was grown, ready for the next solve. tc
// receives eig_t sub-phase flop attribution and may be nil. The fifth
// parameter is ignored; ROADMAP item 1 removes it together with the
// benchmark's call that passes it.
func StedcSched(d, e []float64, ws *WorkSet, job *sched.Job, _ uint64, tc *trace.Collector) ([]float64, *matrix.Dense, error) {
	checkTE(d, e)
	ws.Grow(job.Workers())
	n := len(d)
	if n == 0 {
		return nil, ws.result(0, 0, nil), job.Err()
	}
	r := &ws.run
	r.reset(ws, job, tc, n)
	exp := scaleT(r.dd, r.ee, d, e)
	cutoff := max(dcParCutoff, dcBaseSize)
	root := r.build(0, n, 0, cutoff)

	var err error
	// A problem of one leaf runs on the calling goroutine even over a
	// scheduler: as a task it would only add the task's overhead.
	if job.Parallel() && n > cutoff {
		r.submitNode(root)
		err = job.Wait()
	} else {
		r.runInline(root)
		err = job.Err()
	}
	if err == nil {
		err = r.latch.get()
	}
	if err != nil {
		return nil, nil, err
	}
	vals, q := r.sorted(exp, ws.Seq())
	return vals, q, nil
}

// stebzChunkSize is the fixed index-chunk width of the parallel bisection;
// like dcTileCols it depends only on the problem, never on the workers.
const stebzChunkSize = 32

// StebzSched computes eigenvalues il..iu (1-based, inclusive, ascending
// order) of the symmetric tridiagonal matrix (d, e) by bisection on the Sturm
// count; pass il=1, iu=n for the full spectrum. Each eigenvalue is refined
// until its bracket is below 2·Eps·(|lo|+|hi|) plus an underflow guard, the
// DSTEBZ tolerance. Over a scheduler job the index range is partitioned into
// fixed contiguous chunks solved concurrently, each chunk sharing Sturm
// counts across its eigenvalues via the bracket-splitting stebzInto. Since
// every eigenvalue's refinement path is independent of the chunking, the
// result is bitwise the same at any worker count, inline included. The
// returned slice has length iu−il+1 and is freshly allocated (caller-owned). On
// cancellation the unprocessed entries are zero — check job.Err(). A matrix
// whose largest entry lies outside [ssfmin, ssfmax], where the Sturm count's
// e² would overflow or underflow, is bisected scaled by a power of two, as
// Sterf does; inputs inside that range are bisected as given.
func StebzSched(d, e []float64, il, iu int, ws *WorkSet, job *sched.Job, tc *trace.Collector) []float64 {
	n := len(d)
	checkTE(d, e)
	if n == 0 {
		return nil
	}
	if il < 1 || iu > n || il > iu {
		panic("tridiag: StebzSched index range out of bounds")
	}
	ws.Grow(job.Workers())
	if exp := sterfScale(d, e[:n-1]); exp != 0 {
		ds, es := ws.copySlots(n)
		ldexpInto(ds, d, -exp)
		ldexpInto(es, e[:n-1], -exp)
		out := StebzSched(ds, es, il, iu, ws, job, tc)
		ldexpInto(out, out, exp)
		return out
	}
	out := make([]float64, iu-il+1)
	attr := func(sturmCalls int) {
		tc.AttributeFlops(trace.PhaseEigTBisect, int64(sturmCalls)*4*int64(n))
	}
	if !job.Parallel() {
		wk := ws.Seq()
		for a := il; a <= iu; a += stebzChunkSize {
			if job.Canceled() {
				break
			}
			attr(wk.stebzInto(d, e, a, min(a+stebzChunkSize-1, iu), out, il))
		}
		return out
	}
	for a := il; a <= iu; a += stebzChunkSize {
		a, b := a, min(a+stebzChunkSize-1, iu)
		job.Submit(sched.Task{
			Name: "stebz.chunk",
			Run: func(worker int) {
				attr(ws.Worker(worker).stebzInto(d, e, a, b, out, il))
			},
		})
	}
	job.Wait()
	return out
}

// SteinSched computes eigenvectors of the symmetric tridiagonal matrix (d, e)
// for the given eigenvalues w (ascending, e.g. from StebzSched) by inverse
// iteration, reorthogonalizing vectors whose eigenvalues fall in the same
// cluster (separation below 10⁻³·‖T‖₁, as in LAPACK's DSTEIN). It returns an
// n×len(w) matrix whose columns are the eigenvectors in the order of w. Over
// a scheduler job it runs one task per reorthogonalization cluster (the
// independent unit of inverse iteration — disjoint output columns,
// cluster-local MGS and PRNG stream), bitwise identical to the inline loop at
// any worker count. The returned matrix aliases ws, as StedcSched's results
// do, and stays valid until the next call on it. A cluster that fails to converge
// latches ErrNoConvergence; remaining clusters still complete. Like
// StebzSched it iterates on (d, e) and w scaled by a power of two when the
// largest entry of the matrix lies outside [ssfmin, ssfmax]; the eigenvectors
// are the same.
func SteinSched(d, e []float64, w []float64, ws *WorkSet, job *sched.Job, tc *trace.Collector) (*matrix.Dense, error) {
	n := len(d)
	checkTE(d, e)
	ws.Grow(job.Workers())
	k := len(w)
	if exp := sterfScale(d, e[:max(n-1, 0)]); exp != 0 {
		ds, es := ws.copySlots(n)
		wsc := grown(&ws.zsec, k)
		ldexpInto(ds, d, -exp)
		ldexpInto(es, e[:n-1], -exp)
		ldexpInto(wsc, w, -exp)
		return SteinSched(ds, es, wsc, ws, job, tc)
	}
	z := ws.result(n, k, grown(&ws.z, n*k))
	clear(z.Data)
	if n == 0 || k == 0 {
		return z, nil
	}
	if n == 1 {
		z.Set(0, 0, 1)
		return z, nil
	}
	ortol, eps3 := steinScales(d, e)
	var latch errLatch
	cluster := func(cs, ce int, wk *Work) {
		if latch.failed() {
			return
		}
		if err := steinCluster(d, e, w, z, cs, ce, eps3, wk); err != nil {
			latch.fail(err)
			return
		}
		tc.AttributeFlops(trace.PhaseEigTStein, steinClusterFlops(n, cs, ce))
	}
	if !job.Parallel() {
		for cs := 0; cs < k; {
			ce := steinClusterEnd(w, cs, ortol)
			if job.Canceled() {
				break
			}
			cluster(cs, ce, ws.Seq())
			cs = ce
		}
	} else {
		for cs := 0; cs < k; {
			ce := steinClusterEnd(w, cs, ortol)
			cs0, ce0 := cs, ce
			job.Submit(sched.Task{
				Name: "stein.cluster",
				Run:  func(worker int) { cluster(cs0, ce0, ws.Worker(worker)) },
			})
			cs = ce
		}
		job.Wait()
	}
	return z, latch.get()
}
