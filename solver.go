package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// ErrClosed is returned by a Solver whose Close has been called.
var ErrClosed = errors.New("eigen: solver is closed")

// solverHdrKey is the arena slot holding the retained matrix.Dense headers
// that wrap caller-owned input/destination storage for one solve.
const solverHdrKey work.Key = "solver.hdrs"

type denseHdrs struct {
	a, dst matrix.Dense
}

// Solver is a reusable eigensolver: it owns a persistent scheduler (when
// Workers > 1) and a pool of workspace arenas, so repeated solves skip both
// the worker spin-up and almost all workspace allocation. A Solver is safe
// for concurrent use — simultaneous solves draw distinct arenas from the
// pool and independent task streams (jobs) from the shared scheduler.
//
//	s := eigen.NewSolver(&eigen.Options{Workers: 4})
//	defer s.Close()
//	for _, a := range problems {
//		res, err := s.Eig(a)
//		...
//	}
//
// Close releases the workers; it must be called when the Solver is no
// longer needed (a Solver with Workers ≤ 1 has no goroutines, but calling
// Close is still correct and idempotent). The *Ctx variants accept a
// context; cancellation abandons the solve mid-pipeline and returns the
// context's error while the Solver stays usable.
//
// For many independent problems, SolveBatch runs them concurrently over the
// same scheduler and workspace pool; see batch.go.
type Solver struct {
	opts Options
	pool *work.Pool

	// gate is the Solver's admission controller: BatchConcurrency slots plus
	// MemoryBudget byte reservations. It is persistent — every SolveBatch
	// call on this Solver (including single-item calls made on behalf of
	// network jobs by internal/service) draws from the same slots and budget,
	// so concurrent callers cannot multiply the Solver's footprint.
	gate *batchGate

	mu     sync.Mutex
	sched  *sched.Scheduler
	closed bool
}

// NewSolver creates a Solver with the given options (nil → defaults: the
// two-stage algorithm, divide & conquer, sequential execution). Out-of-range
// option values are clamped per the Options field docs rather than causing a
// panic deep in the scheduler.
func NewSolver(opts *Options) *Solver {
	s := &Solver{pool: work.NewPool()}
	if opts != nil {
		s.opts = *opts
	}
	s.opts.normalize()
	if s.opts.MemoryBudget > 0 {
		s.pool.SetBudget(s.opts.MemoryBudget)
	}
	if s.opts.Workers > 1 {
		s.sched = sched.New(s.opts.Workers)
	}
	slots := 1
	if s.opts.Workers > 1 {
		slots = s.opts.Workers
	}
	if s.opts.BatchConcurrency > 0 {
		slots = s.opts.BatchConcurrency
	}
	s.gate = newBatchGate(slots, s.opts.MemoryBudget)
	return s
}

// EstimateWorkspaceBytes reports the workspace footprint the Solver would
// reserve for one order-n solve (with or without eigenvectors) under its
// configured tile size — the exact cost the admission gate charges against
// Options.MemoryBudget. Serving layers use it to price requests up front:
// a request whose estimate exceeds the budget would be clamped and run
// alone (see batchGate), so a service that wants to refuse such requests
// outright compares this estimate against MemoryBudget before admitting.
func (s *Solver) EstimateWorkspaceBytes(n int, vectors bool) int64 {
	return core.EstimateWorkspaceBytes(n, s.opts.NB, vectors)
}

// MemoryBudget reports the byte budget the Solver admits concurrent solves
// against (0 = unlimited), after option normalization. Together with
// EstimateWorkspaceBytes it lets a caller decide whether a problem fits
// without duplicating the admission arithmetic.
func (s *Solver) MemoryBudget() int64 { return s.opts.MemoryBudget }

// Close shuts the Solver's worker pool down and marks it unusable. It is
// idempotent and safe to call concurrently with (failing) solves.
func (s *Solver) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.sched != nil {
		s.sched.Shutdown()
		s.sched = nil
	}
	return nil
}

// Eig computes all eigenvalues and eigenvectors of a.
func (s *Solver) Eig(a *Matrix) (*Result, error) {
	return s.EigCtx(context.Background(), a)
}

// EigCtx is Eig with cancellation.
func (s *Solver) EigCtx(ctx context.Context, a *Matrix) (*Result, error) {
	return s.solve(ctx, a, true, 0, 0, nil)
}

// EigValues computes all eigenvalues of a (no vectors).
func (s *Solver) EigValues(a *Matrix) ([]float64, error) {
	return s.EigValuesCtx(context.Background(), a)
}

// EigValuesCtx is EigValues with cancellation.
func (s *Solver) EigValuesCtx(ctx context.Context, a *Matrix) ([]float64, error) {
	res, err := s.solve(ctx, a, false, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// EigRange computes eigenpairs il through iu (1-based, ascending,
// inclusive). An invalid range (il < 1, iu < il, or iu beyond the matrix
// order) yields a *RangeError matching ErrInvalidRange.
func (s *Solver) EigRange(a *Matrix, il, iu int) (*Result, error) {
	return s.EigRangeCtx(context.Background(), a, il, iu)
}

// EigRangeCtx is EigRange with cancellation.
func (s *Solver) EigRangeCtx(ctx context.Context, a *Matrix, il, iu int) (*Result, error) {
	if il < 1 || iu < il {
		return nil, &RangeError{IL: il, IU: iu, N: rangeN(a)}
	}
	return s.solve(ctx, a, true, il, iu, nil)
}

// EigValuesRange computes eigenvalues il through iu only.
func (s *Solver) EigValuesRange(a *Matrix, il, iu int) ([]float64, error) {
	return s.EigValuesRangeCtx(context.Background(), a, il, iu)
}

// EigValuesRangeCtx is EigValuesRange with cancellation.
func (s *Solver) EigValuesRangeCtx(ctx context.Context, a *Matrix, il, iu int) ([]float64, error) {
	if il < 1 || iu < il {
		return nil, &RangeError{IL: il, IU: iu, N: rangeN(a)}
	}
	res, err := s.solve(ctx, a, false, il, iu, nil)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// rangeN reports the order a range request was made against, or -1 when the
// matrix is absent or not square (those errors are reported separately).
func rangeN(a *Matrix) int {
	if a == nil || a.r != a.c {
		return -1
	}
	return a.r
}

// EigTo computes all eigenpairs of the n×n matrix a, writing the
// eigenvectors directly into the caller-supplied n×n matrix dst (column k
// pairs with the k-th returned value). No eigenvector matrix is allocated:
// with a recycled workspace arena this is the steady-state allocation-free
// entry point.
func (s *Solver) EigTo(ctx context.Context, a *Matrix, dst *Matrix) ([]float64, error) {
	if dst == nil {
		return nil, fmt.Errorf("eigen: EigTo requires a destination matrix")
	}
	if a != nil && (dst.r != a.r || dst.c != a.c) {
		return nil, fmt.Errorf("eigen: EigTo destination is %d×%d, want %d×%d", dst.r, dst.c, a.r, a.c)
	}
	res, err := s.solve(ctx, a, true, 0, 0, dst)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// solve checks liveness and runs the pipeline under the Solver's own
// scheduler and trace collector.
func (s *Solver) solve(ctx context.Context, a *Matrix, vectors bool, il, iu int, dst *Matrix) (*Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	scheduler := s.sched
	s.mu.Unlock()

	return s.runSolve(ctx, scheduler, s.opts.Collector, a, dst, vectors, il, iu)
}

// runSolve validates the input, borrows a size-matched arena, and runs the
// selected pipeline on the given scheduler (nil → inline execution on the
// calling goroutine). It is the shared core of the one-at-a-time entry
// points and of SolveBatch.
func (s *Solver) runSolve(ctx context.Context, scheduler *sched.Scheduler, tc *trace.Collector, a, dst *Matrix, vectors bool, il, iu int) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("eigen: nil matrix")
	}
	if a.r != a.c {
		return nil, fmt.Errorf("eigen: matrix must be square, got %d×%d", a.r, a.c)
	}
	n := a.r
	if il != 0 || iu != 0 {
		if il < 1 || iu > n || il > iu {
			return nil, &RangeError{IL: il, IU: iu, N: n}
		}
	}
	var job *sched.Job
	if scheduler != nil {
		job = scheduler.NewJob(ctx)
	}
	maxAbs, maxAsym := scanInput(a.data, n, job)
	if !(maxAbs <= math.MaxFloat64) {
		return nil, checkFinite(a.data, max(1, n))
	}
	if maxAsym > symTol*maxAbs {
		return nil, fmt.Errorf("eigen: matrix is not symmetric (tolerance %g·max|a|)", symTol)
	}

	ws := s.pool.Get(n)
	defer s.pool.Put(ws)

	// Headers over caller-owned data live on the arena, so steady-state
	// solves do not allocate them. The arena is private to this solve, which
	// keeps header writes race-free even when the same input matrix is
	// solved concurrently.
	hs, _ := ws.Value(solverHdrKey).(*denseHdrs)
	if hs == nil {
		hs = &denseHdrs{}
		ws.SetValue(solverHdrKey, hs)
	}
	ad := &hs.a
	*ad = matrix.Dense{Rows: a.r, Cols: a.c, Stride: max(1, a.r), Data: a.data}

	co := s.opts.toCore(vectors, il, iu)
	co.Sched = scheduler
	co.Arena = ws
	co.Collector = tc
	if dst != nil {
		hs.dst = matrix.Dense{Rows: dst.r, Cols: dst.c, Stride: max(1, dst.r), Data: dst.data}
		co.Dst = &hs.dst
	}

	var cres *core.Result
	var err error
	if s.opts.Algorithm == OneStage {
		cres, err = core.SyevOneStage(ctx, ad, co)
	} else {
		cres, err = core.SyevTwoStage(ctx, ad, co)
	}
	if err != nil {
		if errors.Is(err, sched.ErrStopped) {
			// The shared scheduler was shut down under this solve.
			return nil, ErrClosed
		}
		return nil, err
	}
	// Solver-owned result storage is adopted or copied out, never
	// arena-backed.
	res := &Result{Values: cres.Values}
	if cres.Vectors != nil {
		if dst != nil && cres.Vectors == co.Dst {
			res.Vectors = dst
		} else {
			res.Vectors = fromDense(cres.Vectors)
		}
	}
	return res, nil
}

// scanBlock is the order of the blocks the input scan pairs with their
// mirrors: a block and its mirror stay in cache while both are read.
const scanBlock = 32

// scanInput reads the order-n column-major a once, in scanBlock×scanBlock
// blocks of the lower triangle and their mirrors, and returns max|a_ij| and
// max|a_ij − a_ji|. A non-finite entry makes maxAbs NaN or +Inf, because max
// keeps NaN. On a job of two or more workers the block columns are split in
// two by block count (the lower triangle's block columns shrink linearly),
// the calling goroutine taking the first share and the job's helper task
// (sched.Helper) the second; otherwise the scan runs inline.
func scanInput(a []float64, n int, job *sched.Job) (maxAbs, maxAsym float64) {
	nb := (n + scanBlock - 1) / scanBlock
	if job.Workers() < 2 || nb < 2 {
		return scanColumns(a, n, 0, nb)
	}
	// The first share ends at the first block column by which half of the
	// nb(nb+1)/2 blocks are covered.
	mid := 0
	for seen := 0; 2*seen < nb*(nb+1)/2; mid++ {
		seen += nb - mid
	}
	var theirs [2]float64
	h := job.Helper("SCAN")
	h.Split(func() { maxAbs, maxAsym = scanColumns(a, n, 0, mid) },
		func() { theirs[0], theirs[1] = scanColumns(a, n, mid, nb) })
	h.End()
	return max(maxAbs, theirs[0]), max(maxAsym, theirs[1])
}

// scanColumns is scanInput's pass over block columns [b0, b1).
func scanColumns(a []float64, n, b0, b1 int) (maxAbs, maxAsym float64) {
	for jb := b0; jb < b1; jb++ {
		j0, j1 := jb*scanBlock, min(n, (jb+1)*scanBlock)
		for i0 := j0; i0 < n; i0 += scanBlock {
			i1 := min(n, i0+scanBlock)
			for j := j0; j < j1; j++ {
				col := a[j*n : (j+1)*n]
				for i, ji := max(i0, j), j+max(i0, j)*n; i < i1; i, ji = i+1, ji+n {
					// One comparison each on the common path; the rare one
					// takes max, which keeps a NaN once it is in.
					x, y := col[i], a[ji]
					if v := math.Abs(x); !(v <= maxAbs) {
						maxAbs = max(maxAbs, v)
					}
					if v := math.Abs(y); !(v <= maxAbs) {
						maxAbs = max(maxAbs, v)
					}
					if v := math.Abs(x - y); !(v <= maxAsym) {
						maxAsym = max(maxAsym, v)
					}
				}
			}
		}
	}
	return maxAbs, maxAsym
}
