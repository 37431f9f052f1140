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

	"repro/internal/band"
	"repro/internal/blas"
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

// EstimateWorkspaceBytes is the admission-control model of one solve's peak
// internal workspace. Every solve holds the stage-1 tile storage (n²; the
// one-stage pipeline's working copy takes its place), the stage-1 block
// reflectors prepared for the reduction's own updates (3n²/2) and the
// band/workband/scratch structures (O(n·nb)). When vectors are computed it
// adds the eigenvector staging matrix (n²), the Q₂ reflector essentials
// (n²/2: about n²/(2·nb) chase reflectors of nb entries each; a values-only
// chase keeps none), the stage-1 reflectors prepared for Q₁ (n²), the
// prepared Q₂ diamonds (≤ 7n²/4: Q₂ holds ≈ n²/2 reflector entries, 768 per
// 63-row diamond of 16 reflectors, whose two packed operands occupy 72×16
// and 24×63 = 2664 values in the widest layout, the AVX2 kernel's, which
// pads the last row-panel of each to a whole 12-row tile: 1.73n²; the
// AVX-512 kernel's 64×16 and 16×63 take 1.33n²), and the D&C's planes. The last is what tridiag.WorkSet retains at any worker
// count: three n² planes laid out by the recursion tree (the bases, the
// merges' gather scratch, their packed left factors), the packed one padded
// to whole 16-row panels (≤ 16n more), and seven n-vectors. The estimate
// deliberately overestimates slightly: the batch layer uses it to bound how
// many solves may hold workspace concurrently under a memory budget, where
// admitting late is recoverable and admitting past physical memory is not.
// nb ≤ 0 means the default tile size.
func EstimateWorkspaceBytes(n, nb int, vectors bool) int64 {
	if n <= 0 {
		return 0
	}
	if nb <= 0 {
		nb = band.DefaultNB
	}
	nn := int64(n) * int64(n)
	bytes := nn         // tile storage (or the one-stage working copy)
	bytes += 3 * nn / 2 // stage-1 reflectors prepared for the reduction
	if vectors {
		bytes += nn                 // vector staging
		bytes += nn / 2             // Q₂ reflector essentials
		bytes += 3*nn + 24*int64(n) // D&C planes and vectors
		bytes += 11 * nn / 4        // reflectors prepared for Q₁ and the Q₂ diamonds
	}
	bytes += 8 * int64(n) * int64(nb+2) // band, workband, scratch
	return 8 * bytes
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

// tridiagWorks returns the arena's retained tridiag.WorkSet (the D&C's
// planes, and scratch per scheduler worker plus the sequential one), creating
// it on first use and growing it to the current pool width. A nil arena gets
// a set of its own, dropped with the solve.
func tridiagWorks(ws *work.Arena, workers int) *tridiag.WorkSet {
	if ws == nil {
		return tridiag.NewWorkSet(workers)
	}
	if v := ws.Value(work.TridiagWork); v != nil {
		set := v.(*tridiag.WorkSet)
		set.Grow(workers)
		return set
	}
	set := tridiag.NewWorkSet(workers)
	ws.SetValue(work.TridiagWork, set)
	return set
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
	set := tridiagWorks(ws, job.Workers())
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
