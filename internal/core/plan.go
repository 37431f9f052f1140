// The phase plan: the two-stage driver decomposed into steps.
//
// SyevTwoStage is a thin loop over a Plan — a typed sequence of Phase values
// (Stage1, Stage2, Tridiag, Backtrans) advancing a SolveState that carries
// every cross-phase artifact (the band factor, the chase result, eigenvalues,
// the eigenvector staging matrix, the arena). The decomposition lets a caller
// step a solve phase by phase — the benchmark's traced pass times each layer
// that way — and pause between phases: a SolveState stopped after any phase
// and resumed later gives a bitwise-identical result
// (TestSolveStateSuspendResume). Nothing in the library suspends a state.
//
// Ownership: a SolveState pins its Options.Arena for its whole lifetime.
// The arena must not serve another solve until the plan has completed (or
// been abandoned); suspending a state suspends the arena with it.
package core

import (
	"context"
	"fmt"

	"repro/internal/backtransform"
	"repro/internal/band"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// Phase is one resumable step of the two-stage eigensolver. Running a phase
// reads and extends its SolveState; phases must execute in plan order, each
// at most once. Name doubles as the trace phase the step's wall time is
// attributed to.
type Phase interface {
	// Name is the phase's trace attribution name (trace.PhaseStage1, ...).
	Name() string
	// Run executes the phase, advancing st. A non-nil error aborts the
	// plan; the SolveState must then be abandoned.
	Run(ctx context.Context, st *SolveState) error
}

// Plan is the ordered phase sequence of one solve.
type Plan []Phase

// BuildPlan returns the two-stage phase sequence for the given options:
// Stage1 → Stage2 → Tridiag, plus Backtrans when eigenvectors are wanted.
func BuildPlan(o *Options) Plan {
	p := Plan{Stage1{}, Stage2{}, Tridiag{}}
	if o.Vectors {
		p = append(p, Backtrans{})
	}
	return p
}

// SolveState carries one two-stage solve across phases: the input, the
// resolved execution parameters, and every cross-phase artifact. It is
// created by NewSolveState, advanced by Phase.Run in plan order (any pause
// between phases is fine — that is the suspend/resume surface), and
// finished by Result. A SolveState is not safe for concurrent use; one
// phase runs at a time.
type SolveState struct {
	a *matrix.Dense
	o Options

	n, il, iu, nb int

	phaseJobs
	ownSched bool // transient scheduler created for this solve; Close shuts it down
	workers  int

	ws *work.Arena
	tc *trace.Collector

	// Cross-phase artifacts, owned by the state (arena-backed except for
	// vals/evecs, which are caller-owned copies).
	f1       *band.Factor
	chase    *bulge.Result
	vals     []float64
	evecs    *matrix.Dense
	vecsDone bool

	trivial *Result // set for n == 0: the plan is empty and Result returns this
}

// NewSolveState validates the problem and builds its phase plan. The
// returned state must be advanced by running the plan's phases in order and
// released with Close (which only matters when the state owns a transient
// scheduler — Close is a no-op otherwise, and always idempotent). For n = 0
// the plan is empty and Result is immediately valid.
func NewSolveState(ctx context.Context, a *matrix.Dense, o Options) (*SolveState, Plan, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("core: matrix must be square, got %d×%d", n, a.Cols)
	}
	if n == 0 {
		return &SolveState{trivial: &Result{}}, Plan{}, nil
	}
	il, iu, err := o.indexRange(n)
	if err != nil {
		return nil, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	st := &SolveState{
		a:  a,
		o:  o,
		n:  n,
		il: il,
		iu: iu,
		ws: o.Arena,
		tc: o.Collector,

		phaseJobs: phaseJobs{s: o.Sched},
	}
	if st.s == nil && o.Workers > 1 {
		st.s = sched.New(o.Workers)
		st.ownSched = true
	}
	st.workers = 1
	if st.s != nil {
		st.workers = st.s.Workers()
	}
	st.nb = o.NB
	if st.nb <= 0 {
		st.nb = band.DefaultNB
	}
	return st, BuildPlan(&o), nil
}

// Close releases resources owned by the state: the transient scheduler, when
// NewSolveState created one (Options.Sched nil, Options.Workers > 1). It is
// idempotent and never touches a caller-supplied scheduler or arena.
func (st *SolveState) Close() {
	if st.ownSched && st.s != nil {
		st.s.Shutdown()
		st.s = nil
		st.ownSched = false
	}
}

// Result assembles the solve's outcome. It is valid only after every phase
// of the plan has run (immediately, for the empty n = 0 plan); eigenvectors
// are present only when the plan included Backtrans and it completed.
func (st *SolveState) Result() *Result {
	if st.trivial != nil {
		return st.trivial
	}
	res := &Result{Values: st.vals}
	if st.vecsDone {
		res.Vectors = st.evecs
	}
	return res
}

// phaseJobs makes the task streams of one solve's phases, on its scheduler s
// or, for a sequential solve, inline.
type phaseJobs struct {
	s *sched.Scheduler
	// inline is the storage of a sequential solve's schedulerless job,
	// remade in place on each phase's ctx.
	inline *sched.Job
}

// phaseJob returns the task stream a phase runs on: a fresh job per phase on
// the solve's scheduler, or — for a sequential solve — an inline job on the
// phase's own ctx (nil for a nil ctx), made in storage kept across phases so
// that a solve allocates it once.
func (p *phaseJobs) phaseJob(ctx context.Context) *sched.Job {
	if p.s != nil {
		return p.s.NewJob(ctx)
	}
	if ctx == nil {
		return nil // a nil *Job is valid everywhere and never cancels
	}
	if p.inline == nil {
		p.inline = new(sched.Job)
	}
	*p.inline = *sched.Inline(ctx)
	return p.inline
}

// Stage1 reduces A to band form (the tile DAG of the paper's first stage).
// It reads A once, into the tile storage, and never writes it.
// Compute-bound: ~(4/3)n³ Level-3 flops.
type Stage1 struct{}

func (Stage1) Name() string { return trace.PhaseStage1 }

func (Stage1) Run(ctx context.Context, st *SolveState) error {
	job := st.phaseJob(ctx)
	cfg := band.Config{NB: st.nb, ValuesOnly: !st.o.Vectors}
	st.tc.Phase(trace.PhaseStage1, func() {
		st.f1 = band.Reduce(st.a, cfg, job, st.ws, st.tc)
	})
	return job.Err()
}

// Stage2 chases the band down to tridiagonal form (bulge chasing).
// Memory-bound: the kernels stream the band with Level-2-like intensity. The
// paper restricts this stage to a subset of the cores. Here it runs on the
// calling goroutine as one stream, or, on two or more workers from order
// bulge.TwoStreamOrder on, as two: the upper half of each sweep there and
// the lower half in one task on the phase's job (EXPERIMENTS.md, "Both
// workers in a solve's serial sections"). The job also carries
// cancellation.
type Stage2 struct{}

func (Stage2) Name() string { return trace.PhaseStage2 }

func (Stage2) Run(ctx context.Context, st *SolveState) error {
	job := st.phaseJob(ctx)
	st.tc.Phase(trace.PhaseStage2, func() {
		st.chase = bulge.Chase(st.f1.Band, job, st.o.Vectors, st.ws, st.tc)
	})
	return job.Err()
}

// Tridiag solves the tridiagonal eigenproblem (eig_t) with the selected
// method.
type Tridiag struct{}

func (Tridiag) Name() string { return trace.PhaseEigT }

func (Tridiag) Run(ctx context.Context, st *SolveState) error {
	vals, evecs, err := solveTridiagonal(st.chase.T, &st.o, st.il, st.iu, st.ws, st.tc, st.phaseJob(ctx))
	if err != nil {
		return err
	}
	st.vals, st.evecs = vals, evecs
	return nil
}

// Backtrans accumulates the eigenvectors of A from the eigenvectors of T:
// Z = Q₁·(Q₂·E), in one fused pass — one task per column block applies every
// Q₂ diamond and then the full Q₁ sequence while the block is hot, so E is
// swept once and there is no barrier between the factors. Compute-bound:
// 2n³·f Level-3 flops per factor.
type Backtrans struct{}

func (Backtrans) Name() string { return trace.PhaseBacktrans }

func (Backtrans) Run(ctx context.Context, st *SolveState) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	job := st.phaseJob(ctx)
	st.tc.Phase(trace.PhaseBacktrans, func() {
		plan := backtransform.NewPlan(st.chase, 0, st.ws)
		plan.ApplyFused(st.f1, st.evecs, job, 0, st.tc)
	})
	if err := job.Err(); err != nil {
		return err
	}
	st.vecsDone = true
	return nil
}
