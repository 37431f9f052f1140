// Package onestage implements the classic one-stage LAPACK algorithm the
// paper benchmarks against: blocked reduction of a dense symmetric matrix
// directly to tridiagonal form (DSYTRD with DLATRD panels) and the
// corresponding back-transformation (DORMTR/DORGTR). Each reflector requires
// a symmetric matrix–vector product with the entire trailing submatrix, so
// the algorithm streams the matrix from main memory once per column — the
// memory-bound behaviour that motivates the two-stage approach.
package onestage

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// DefaultNB is the default panel width for the blocked reduction.
const DefaultNB = 32

// SplitOrder is N₁, the trailing order from which a reduction on a job of two
// or more workers runs each symv and each rank-2k update as two halves. Below
// it the one call is faster (EXPERIMENTS.md, "The one-stage reduction on both
// workers").
const SplitOrder = 384

// Sytrd reduces the symmetric matrix held in the lower triangle of a to
// tridiagonal form: A = Q·T·Qᵀ. On return:
//
//   - d (length n) holds the diagonal of T,
//   - e (length n−1) holds the subdiagonal of T,
//   - tau (length n−1) holds the reflector scales,
//   - the columns of a below the first subdiagonal hold the essential parts
//     of the reflectors (reflector i occupies a[i+2:, i], with an implicit
//     leading 1 at row i+1), exactly LAPACK's packing.
//
// nb is the panel width (DefaultNB if ≤ 0). ws, which may be nil, supplies
// the DLATRD panel workspace. tc, which may be nil, receives flop
// accounting. Sytrd runs on the calling goroutine alone: it is SytrdJob on a
// nil job.
func Sytrd(a *matrix.Dense, nb int, ws *work.Arena, tc *trace.Collector) (d, e, tau []float64) {
	return SytrdJob(a, nb, nil, ws, tc)
}

// SytrdJob is Sytrd on a job. On a job of two or more workers, from the
// trailing order SplitOrder on, latrd's symv and each panel's rank-2k update
// run as two halves: one on the calling goroutine, the other on the job's
// helper task (sched.Helper). Each element of the product and of the trailing
// matrix still takes its fused multiply-adds in the sequential order
// (blas.DsymvRows, blas.Dsyr2kCols), so the result is Sytrd's bits. The job
// carries cancellation, checked once per panel; if it is canceled the
// contents of a, d, e and tau are unspecified and the caller must check
// job.Err. SytrdJob returns only after its task has.
func SytrdJob(a *matrix.Dense, nb int, job *sched.Job, ws *work.Arena, tc *trace.Collector) (d, e, tau []float64) {
	return sytrd(a, nb, job, ws, tc, SplitOrder)
}

// sytrd is SytrdJob with the split order chosen by the caller.
func sytrd(a *matrix.Dense, nb int, job *sched.Job, ws *work.Arena, tc *trace.Collector, from int) (d, e, tau []float64) {
	n := a.Rows
	if a.Cols != n {
		panic("onestage: Sytrd requires a square matrix")
	}
	if nb <= 0 {
		nb = DefaultNB
	}
	d = make([]float64, n)
	e = make([]float64, max(0, n-1))
	tau = make([]float64, max(0, n-1))
	if n == 0 {
		return
	}
	if n == 1 {
		d[0] = a.At(0, 0)
		return
	}

	var h *halves // nil once no later call splits
	if job.Workers() >= 2 && n-1 >= from {
		h = newHalves(job.Helper("SYTRD"))
		defer h.help.End()
	}
	lda := a.Stride
	w := ws.Dense(work.OneStagePanel, n, nb, false)
	scratch := ws.Floats(work.OneStageWork, nb, false)
	for i0 := 0; i0 < n-1; i0 += nb {
		if job.Canceled() {
			return
		}
		pb := min(nb, n-1-i0) // reflectors in this panel
		remain := n - i0      // rows of the trailing part incl. panel
		if h != nil && remain-1 < from {
			h.help.End() // no later call splits: free the worker
			h = nil
		}
		latrd(a.View(i0, i0, remain, remain), pb, d[i0:], e[i0:], tau[i0:], w, scratch, tc, h, from)
		// Rank-2pb update of the trailing submatrix:
		// A[i0+pb:, i0+pb:] -= V·Wᵀ + W·Vᵀ where V is the panel's
		// reflectors and W the latrd workspace.
		t0 := i0 + pb
		nt := n - t0
		if nt > 0 {
			upd := half{syr2k: true, n: nt, k: pb, hi: nt, alpha: -1,
				a: a.Data[t0+i0*lda:], lda: lda, b: w.Data[pb:], ldb: w.Stride, c: a.Data[t0+t0*lda:], ldc: lda}
			if h != nil && nt >= from {
				right := upd
				upd.hi = blas.Dsyr2kHalf(nt)
				right.lo = upd.hi
				h.split(upd, right)
			} else {
				upd.run()
			}
			tc.AddFlops(trace.KSyrk, 2*int64(nt)*int64(nt+1)*int64(pb))
		}
	}
	// The diagonal of the fully reduced matrix is T's diagonal.
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d, e, tau
}

// latrd reduces the first pb columns of the symmetric sub (order m, lower)
// to tridiagonal form, accumulating the update factors into w so the caller
// can apply a single rank-2pb update to the trailing submatrix. It mirrors
// LAPACK's DLATRD (uplo = 'L'). scratch must hold ≥ pb floats. With a
// helper, each symv of order from or more runs as two halves.
func latrd(sub *matrix.Dense, pb int, d, e, tau []float64, w *matrix.Dense, scratch []float64, tc *trace.Collector, h *halves, from int) {
	m := sub.Rows
	lda := sub.Stride
	ldw := w.Stride
	for i := 0; i < pb; i++ {
		rows := m - i // length of column i from the diagonal down
		// Update A[i:, i] with the previous panel columns:
		// A[i:, i] -= V[i:, :i]·W[i, :i]ᵀ + W[i:, :i]·V[i, :i]ᵀ.
		if i > 0 {
			col := sub.Data[i+i*lda:]
			blas.Dgemv(blas.NoTrans, rows, i, -1, sub.Data[i:], lda, w.Data[i:], ldw, 1, col, 1)
			blas.Dgemv(blas.NoTrans, rows, i, -1, w.Data[i:], ldw, sub.Data[i:], lda, 1, col, 1)
			tc.AddFlops(trace.KGemv, 4*int64(rows)*int64(i))
		}
		if i >= len(e) || m-i-1 == 0 {
			continue
		}
		// Generate the reflector annihilating A[i+2:, i].
		alpha := sub.At(i+1, i)
		beta, t := householder.Larfg(m-i-1, alpha, sub.Data[i+2+i*lda:], 1)
		e[i] = beta
		tau[i] = t
		sub.Set(i+1, i, 1) // store the implicit 1 so symv can use the column
		// w_i = tau · A[i+1:, i+1:]·v  (symmetric, trailing).
		vlen := m - i - 1
		v := sub.Data[i+1+i*lda:]
		wi := w.Data[i+1+i*ldw:]
		mv := half{n: vlen, hi: vlen, alpha: t, a: sub.Data[(i+1)+(i+1)*lda:], lda: lda, b: v, c: wi}
		if h != nil && vlen >= from {
			tail := mv
			mv.hi = vlen / 2 &^ 3
			tail.lo = mv.hi
			h.split(mv, tail)
		} else {
			mv.run()
		}
		tc.AddFlops(trace.KSymv, 2*int64(vlen)*int64(vlen))
		if i > 0 {
			// w_i -= tau·(V·(Wᵀv) + W·(Vᵀv)) restricted to rows i+1:.
			tmp := scratch[:i]
			blas.Dgemv(blas.Trans, vlen, i, 1, w.Data[i+1:], ldw, v, 1, 0, tmp, 1)
			blas.Dgemv(blas.NoTrans, vlen, i, -t, sub.Data[i+1:], lda, tmp, 1, 1, wi, 1)
			blas.Dgemv(blas.Trans, vlen, i, 1, sub.Data[i+1:], lda, v, 1, 0, tmp, 1)
			blas.Dgemv(blas.NoTrans, vlen, i, -t, w.Data[i+1:], ldw, tmp, 1, 1, wi, 1)
			tc.AddFlops(trace.KGemv, 8*int64(vlen)*int64(i))
		}
		// w_i -= (tau/2)·(w_iᵀ·v)·v.
		dot := blas.Ddot(vlen, wi, 1, v, 1)
		blas.Daxpy(vlen, -0.5*t*dot, v, 1, wi, 1)
		tc.AddFlops(trace.KOther, 4*int64(vlen))
	}
}

// half is one half of a split call, or a whole call: the rows [lo, hi) of
// the product w = alpha·A·b (A of order n in a, lower, w in c), or with syr2k
// the columns [lo, hi) of the update C += alpha·(A·Bᵀ + B·Aᵀ), A and B n×k.
type half struct {
	syr2k         bool
	n, k, lo, hi  int
	alpha         float64
	a, b, c       []float64
	lda, ldb, ldc int
}

func (h *half) run() {
	if h.syr2k {
		blas.Dsyr2kCols(blas.Lower, blas.NoTrans, h.n, h.k, h.lo, h.hi, h.alpha, h.a, h.lda, h.b, h.ldb, 1, h.c, h.ldc)
		return
	}
	blas.DsymvRows(blas.Lower, h.n, h.lo, h.hi, h.alpha, h.a, h.lda, h.b, 1, 0, h.c, 1)
}

// halves is the storage of a reduction's split calls: the two halves of the
// call in progress and their run method values, bound once per reduction so
// that a split allocates nothing.
type halves struct {
	help               *sched.Helper
	mine, theirs       half
	runMine, runTheirs func()
}

func newHalves(h *sched.Helper) *halves {
	s := &halves{help: h}
	s.runMine, s.runTheirs = s.mine.run, s.theirs.run
	return s
}

// split runs mine on the calling goroutine and theirs on the helper's task
// (see sched.Helper.Split).
func (s *halves) split(mine, theirs half) {
	s.mine, s.theirs = mine, theirs
	s.help.Split(s.runMine, s.runTheirs)
}
