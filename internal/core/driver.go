// Package core assembles the full symmetric eigensolvers from the
// substrates: the paper's two-stage algorithm (tile reduction to band,
// bulge chasing to tridiagonal, tridiagonal eigensolver, diamond-blocked
// Q₂ and tile Q₁ back-transformations) and the classic one-stage LAPACK
// baseline it is benchmarked against. Both drivers share the tridiagonal
// solvers and report per-phase timings through a trace.Collector, which is
// how the paper's Figure 1 breakdowns and Figure 4 speedups are
// regenerated.
//
// The drivers take a context for cancellation and, through Options, an
// optional shared scheduler and workspace arena so a long-lived Solver can
// run many solves without re-spawning workers or re-allocating workspace.
package core

import (
	"context"
	"fmt"

	"repro/internal/backtransform"
	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/onestage"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tridiag"
	"repro/internal/work"
)

// Method selects the tridiagonal eigensolver, mirroring the three LAPACK
// drivers of the paper's Table 1.
type Method int

const (
	// MethodDC is divide & conquer (DSYEVD's approach).
	MethodDC Method = iota
	// MethodBI is bisection + inverse iteration, the subset-capable O(n²)
	// solver standing in for MRRR/DSYEVR (see DESIGN.md).
	MethodBI
	// MethodQR is implicit QL/QR iteration with accumulated rotations
	// (DSYEV's approach; ≈6n³ when all vectors are wanted).
	MethodQR
)

func (m Method) String() string {
	switch m {
	case MethodDC:
		return "D&C"
	case MethodBI:
		return "BI"
	case MethodQR:
		return "QR"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures the drivers. The zero value computes all eigenvalues
// and eigenvectors with D&C, default block sizes, and sequential execution.
type Options struct {
	// NB is the tile size / bandwidth for the two-stage driver and the
	// panel width for the one-stage driver (≤ 0 → defaults).
	NB int
	// Workers is the task-scheduler width; ≤ 1 runs sequentially. Ignored
	// when Sched is set.
	Workers int
	// Method selects the tridiagonal eigensolver.
	Method Method
	// Vectors requests eigenvectors.
	Vectors bool
	// IL, IU select the 1-based ascending index range of eigenpairs to
	// compute (inclusive); both zero means the full spectrum. Only MethodBI
	// computes strictly the subset; the other methods compute everything
	// and return the slice (matching LAPACK semantics, and the complexity
	// argument of the paper's fraction f).
	IL, IU int
	// Collector receives flop counts and per-phase timings; may be nil.
	Collector *trace.Collector

	// Sched, when non-nil, is a long-lived scheduler the solve runs on; the
	// driver creates a fresh Job per phase and never shuts it down. When nil
	// and Workers > 1, a transient scheduler is created for this solve.
	Sched *sched.Scheduler
	// Arena, when non-nil, supplies every internal workspace; buffers are
	// keyed by use and grown on demand, so a recycled arena makes repeated
	// same-size solves allocation-free in steady state. Nil means fresh
	// allocation everywhere (one-shot behaviour).
	Arena *work.Arena
	// Dst, when non-nil and correctly sized (n × k for the requested range),
	// receives the eigenvectors in place of a freshly allocated matrix.
	Dst *matrix.Dense
}

// EstimateWorkspaceBytes is the workspace a solve of order n under o leaves
// in its arena, for the whole spectrum (a subset takes no more): the sum of
// workspaceSlots, each sized by the function its allocator calls, as a
// LAPACK workspace query (LWORK = −1) is answered. oneStage picks
// SyevOneStage's pipeline. The batch gate admits solves by it.
func EstimateWorkspaceBytes(n int, o Options, oneStage bool) (bytes int64) {
	for _, l := range workspaceSlots(n, o, oneStage) {
		bytes += 8 * int64(l)
	}
	return bytes
}

// workspaceSlots is the float64 storage each step of an order-n solve under
// o keeps in its arena on o.Sched's workers, else o.Workers: stage 1 (in the
// one-stage pipeline the working copy and SytrdJob's and ApplyQJob's work),
// stage 2, the tridiagonal solve and the back-transformation.
func workspaceSlots(n int, o Options, oneStage bool) (slots [4]int) {
	if n <= 0 {
		return slots
	}
	w := max(1, o.Workers)
	if o.Sched != nil {
		w = o.Sched.Workers()
	}
	// All but the D&C with vectors copy (d, e) (solveTridiagonal's scratch),
	// and QR keeps its k vectors in the vector stage.
	k := 0
	if o.Vectors {
		k = n
	}
	switch {
	case o.Vectors && o.Method == MethodDC:
		slots[2] = tridiag.Workspace(n, n, true)
	case o.Method == MethodBI:
		slots[2] = 2*n - 1 + tridiag.Workspace(n, k, false)
	default:
		slots[2] = 2*n - 1 + k*n
	}
	nb := o.NB
	if oneStage {
		if nb <= 0 {
			nb = onestage.DefaultNB
		}
		slots[0] = n*n + onestage.Workspace(n, nb, w, o.Vectors)
		return slots
	}
	if nb <= 0 {
		nb = band.DefaultNB
	}
	b := min(nb, n-1)
	slots[0] = band.Workspace(n, nb, w, !o.Vectors)
	slots[1] = bulge.Workspace(n, b, o.Vectors)
	if o.Vectors {
		slots[3] = backtransform.Workspace(n, b, nb, w)
	}
	return slots
}

// Result of an eigensolve.
type Result struct {
	// Values are the computed eigenvalues in ascending order (the requested
	// range). The slice is freshly allocated and owned by the caller.
	Values []float64
	// Vectors holds the corresponding eigenvectors in its columns when
	// requested, else nil. It is Options.Dst when that was supplied, else a
	// freshly allocated matrix; never arena-backed.
	Vectors *matrix.Dense
}

func (o *Options) indexRange(n int) (il, iu int, err error) {
	il, iu = o.IL, o.IU
	if il == 0 && iu == 0 {
		return 1, n, nil
	}
	if il < 1 || iu > n || il > iu {
		return 0, 0, fmt.Errorf("core: invalid index range [%d, %d] for n=%d", il, iu, n)
	}
	return il, iu, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SyevTwoStage computes eigenpairs of the dense symmetric matrix a (only
// symmetry is assumed; both triangles are read) with the paper's two-stage
// algorithm. a is not modified. ctx may be nil (no cancellation); on
// cancellation the context's error is returned and any shared scheduler in
// o.Sched remains usable.
//
// It is a thin loop over the phase plan (see plan.go): a caller that wants
// to time or inspect the phases one by one — the benchmark's traced pass —
// uses NewSolveState and runs the plan itself; both paths execute the
// identical phase bodies and are bitwise identical.
func SyevTwoStage(ctx context.Context, a *matrix.Dense, o Options) (*Result, error) {
	st, plan, err := NewSolveState(ctx, a, o)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for _, ph := range plan {
		if err := ph.Run(ctx, st); err != nil {
			return nil, err
		}
	}
	return st.Result(), nil
}

// SyevOneStage computes the same eigenpairs with the classic one-stage
// algorithm (blocked SYTRD + back-transformation), the MKL-equivalent
// baseline of the paper's Figure 4. a is not modified.
func SyevOneStage(ctx context.Context, a *matrix.Dense, o Options) (*Result, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("core: matrix must be square, got %d×%d", n, a.Cols)
	}
	if n == 0 {
		return &Result{}, nil
	}
	il, iu, err := o.indexRange(n)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tc := o.Collector
	ws := o.Arena

	// Every step runs over a scheduler when one is available (or Workers
	// asks for one), matching the two-stage driver: on two or more workers
	// the reduction's large symv and rank-2k calls and a wide C's
	// back-transformation run as two halves, with the sequential bits
	// (onestage.SytrdJob, onestage.ApplyQJob).
	jobs := phaseJobs{s: o.Sched}
	if jobs.s == nil && o.Workers > 1 {
		jobs.s = sched.New(o.Workers)
		defer jobs.s.Shutdown()
	}

	aw := ws.Dense(work.Stage1Dense, n, n, false)
	aw.CopyFrom(a)
	var d, e, tau []float64
	job := jobs.phaseJob(ctx)
	tc.Phase(trace.PhaseReduction, func() {
		d, e, tau = onestage.SytrdJob(aw, o.NB, job, ws, tc)
	})
	if err := job.Err(); err != nil {
		return nil, err
	}
	t := &matrix.Tridiagonal{D: d, E: e}
	vals, evecs, err := solveTridiagonal(t, &o, il, iu, ws, tc, jobs.phaseJob(ctx))
	if err != nil {
		return nil, err
	}
	res := &Result{Values: vals}
	if !o.Vectors {
		return res, nil
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tc.Phase(trace.PhaseBacktrans, func() {
		onestage.ApplyQJob(aw, tau, blas.NoTrans, evecs, o.NB, jobs.phaseJob(ctx), ws, tc)
	})
	res.Vectors = evecs
	return res, nil
}

// intoVectors materializes the n×k eigenvector block src into dst when dst
// has the right shape, else into a fresh matrix. The result never aliases
// arena- or WorkSet-owned storage.
func intoVectors(dst *matrix.Dense, src *matrix.Dense) *matrix.Dense {
	if dst != nil && dst.Rows == src.Rows && dst.Cols == src.Cols {
		dst.CopyFrom(src)
		return dst
	}
	return src.Clone()
}

// solveTridiagonal dispatches to the selected tridiagonal eigensolver and
// returns the [il, iu] slice of the spectrum (and vectors when requested).
// The returned slices/matrices are caller-owned copies, never arena-backed.
//
// job is the stage's task stream. On a scheduler-backed job the stage runs
// its parallel entry points — concurrent D&C subtrees and tiled merges,
// chunked bisection, cluster-parallel inverse iteration; results are bitwise
// identical to the sequential path (an inline or nil job) at any worker
// count.
func solveTridiagonal(t *matrix.Tridiagonal, o *Options, il, iu int, ws *work.Arena, tc *trace.Collector, job *sched.Job) (vals []float64, evecs *matrix.Dense, err error) {
	n := t.N()
	k := iu - il + 1
	// The arena's retained WorkSet (the D&C's planes, and scratch per worker
	// and for the submitting goroutine), grown to the pool's width.
	set := work.Value[tridiag.WorkSet](ws, work.TridiagWork)
	set.Grow(job.Workers())
	tc.Phase(trace.PhaseEigT, func() {
		// Scratch copies of (d, e): the solvers destroy their inputs.
		scratch := func() (d, e []float64) {
			d = ws.Floats(work.TridiagD, n, false)
			e = ws.Floats(work.TridiagE, max(0, n-1), false)
			copy(d, t.D)
			copy(e, t.E)
			return d, e
		}
		if !o.Vectors {
			switch o.Method {
			case MethodBI:
				d, e := scratch()
				vals = tridiag.StebzSched(d, e, il, iu, set, job, tc)
				err = job.Err()
			default:
				d, e := scratch()
				if err = tridiag.Sterf(d, e); err == nil {
					vals = append([]float64(nil), d[il-1:iu]...)
				}
			}
			return
		}
		switch o.Method {
		case MethodDC:
			var dv []float64
			var q *matrix.Dense
			dv, q, err = tridiag.StedcSched(t.D, t.E, set, job, 0, tc)
			if err != nil {
				return
			}
			vals = append([]float64(nil), dv[il-1:iu]...)
			evecs = intoVectors(o.Dst, q.View(0, il-1, n, k))
		case MethodBI:
			d, e := scratch()
			vals = tridiag.StebzSched(d, e, il, iu, set, job, tc)
			if err = job.Err(); err != nil {
				return
			}
			var z *matrix.Dense
			z, err = tridiag.SteinSched(t.D, t.E, vals, set, job, tc)
			if err == nil {
				evecs = intoVectors(o.Dst, z)
			}
		case MethodQR:
			d, e := scratch()
			q := ws.Dense(work.VectorStage, n, n, true)
			for i := 0; i < n; i++ {
				q.Data[i+i*q.Stride] = 1
			}
			// QR accumulates rotations through one matrix: inherently
			// sequential, so it ignores the scheduler.
			if err = tridiag.Steqr(d, e, q, set.Seq()); err != nil {
				return
			}
			tc.AttributeFlops(trace.PhaseEigTRecurse, 6*int64(n)*int64(n)*int64(n))
			vals = append([]float64(nil), d[il-1:iu]...)
			evecs = intoVectors(o.Dst, q.View(0, il-1, n, k))
		default:
			err = fmt.Errorf("core: unknown method %v", o.Method)
		}
		if err == nil {
			err = job.Err()
		}
	})
	return vals, evecs, err
}
