package main

import (
	"context"
	"fmt"
	"math/rand"

	eigen "repro"
	"repro/internal/core"
)

// soloSpec is a workload whose operation is one call of the public Solver
// on one matrix. Only Workers, Method and Algorithm are ever set: every
// other knob stays at what NewSolver gives a user.
type soloSpec struct {
	n         int
	parallel  bool // Workers = W; false is NewSolver(nil), inline on the caller
	algorithm eigen.Algorithm
	method    eigen.Method
	vectors   bool
	subset    bool // the lowest fifth of the pairs (the paper's f = 0.2)
}

var soloSpecs = map[string]soloSpec{
	"full_dc_1024":     {n: 1024, parallel: true, vectors: true},
	"full_dc_1024_seq": {n: 1024, vectors: true},
	"values_1536":      {n: 1536, parallel: true},
	"subset_bi_1024":   {n: 1024, parallel: true, method: eigen.BisectionInverseIteration, vectors: true, subset: true},
	"onestage_dc_1024": {n: 1024, parallel: true, algorithm: eigen.OneStage, vectors: true},
}

// soloEnv is a set-up solo workload: input generated, Solver built, one
// warm-up solve done (arena filled, workers spawned, pack buffers sized).
type soloEnv struct {
	sp     soloSpec
	in     input
	dst    *eigen.Matrix // EigTo destination of the full-spectrum workloads
	s      *eigen.Solver
	il, iu int
	width  int // scheduler width the Solver runs on
}

func (sp soloSpec) build(cfg config) (*soloEnv, error) {
	n := max(8, sp.n/cfg.sc.div)
	e := &soloEnv{sp: sp, in: goe(rand.New(rand.NewSource(cfg.seed)), n), width: 1}
	if sp.subset {
		e.il, e.iu = 1, (n+4)/5
	}
	if sp.vectors && !sp.subset {
		e.dst = eigen.NewMatrix(n)
	}
	var opts *eigen.Options
	if sp.parallel {
		opts = &eigen.Options{Workers: cfg.workers, Method: sp.method, Algorithm: sp.algorithm}
		e.width = max(1, cfg.workers)
	}
	e.s = eigen.NewSolver(opts)
	if _, err := e.solve(); err != nil {
		e.s.Close()
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return e, nil
}

// solve is the workload's timed operation.
func (e *soloEnv) solve() (result, error) {
	switch {
	case !e.sp.vectors:
		vals, err := e.s.EigValues(e.in.a)
		return result{vals: vals}, err
	case e.sp.subset:
		res, err := e.s.EigRange(e.in.a, e.il, e.iu)
		if err != nil {
			return result{}, err
		}
		return result{res.Values, res.Vectors}, nil
	default:
		vals, err := e.s.EigTo(context.Background(), e.in.a, e.dst)
		return result{vals, e.dst}, err
	}
}

// coreOptions is the same problem in the terms of the internal driver the
// traced pass steps through.
func (e *soloEnv) coreOptions() core.Options {
	co := core.Options{Vectors: e.sp.vectors, IL: e.il, IU: e.iu}
	if e.sp.method == eigen.BisectionInverseIteration {
		co.Method = core.MethodBI
	}
	return co
}

func runSolo(cfg config, sp soloSpec, rec *runRecord) error {
	if cfg.traced {
		return runSoloTraced(cfg, sp, rec)
	}
	env, setupS, err := medianSetup(cfg.sc.setupReps,
		func() (*soloEnv, error) { return sp.build(cfg) },
		func(e *soloEnv) { e.s.Close() })
	if err != nil {
		return err
	}
	defer env.s.Close()
	chk := &checker{}
	gate := firstThenSame{corrupt: cfg.corrupt}
	secs := timedOps(cfg.seconds, cfg.sc.minOps, rec, env.solve, gate.check)
	rec.reportEndToEnd(setupS, secs, 1)
	rec.op(gate.verifyFirst(chk, env.in.ad))
	rec.finish(chk)
	return nil
}

func runSoloTraced(cfg config, sp soloSpec, rec *runRecord) error {
	env, err := sp.build(cfg)
	if err != nil {
		return err
	}
	defer env.s.Close()
	// Reference: the public Solver, untraced, on the same input. Its result
	// is what the outside decomposition must reproduce bit for bit, its time
	// what tracing is charged against, its allocations the steady state.
	chk := &checker{}
	gate := &firstThenSame{corrupt: cfg.corrupt}
	refSecs := rec.referenceOps(func() []float64 { return timedOps(0, cfg.sc.tracedOps, rec, env.solve, gate.check) })
	rec.op(gate.verifyFirst(chk, env.in.ad))

	spans := newRecorder()
	roof := measureRoofline(cfg.sc, spans)
	roof.emit(rec)

	tr := newTracer(spans, env.width)
	defer tr.close()
	traced := func() (result, *opTrace, error) {
		if sp.algorithm == eigen.OneStage {
			return tr.oneStage(env.in)
		}
		return tr.twoStage(env.in, env.coreOptions())
	}
	// No warm-up: the first traced operation fills the tracer's own arena,
	// and the medians over the operations set it aside.
	ag := &tracedAgg{}
	for i := 0; i < cfg.sc.tracedOps; i++ {
		r, o, err := traced()
		if err == nil && !sameBits(gate.ref, r) {
			err = fmt.Errorf("traced phase-by-phase result differs bitwise from the Solver's")
		}
		rec.op(err)
		if err != nil {
			continue
		}
		ag.add(o)
	}
	if len(ag.ops) > 0 {
		ag.emit(rec, roof, tr.width())
		rec.Notes["layers"] = ag.table(roof, tr.width())
		rec.Metrics.set("trace.overhead_frac", rec.Metrics["trace.solve_s"].Value/median(refSecs)-1)
	}
	rec.Metrics.set("work.arena_mb", float64(tr.ws.Bytes())/1e6)

	// Derived, informational ratios against another workload's configuration
	// on the same matrix, measured here so one run carries its own base.
	other := func(name string) (float64, error) {
		oenv, err := soloSpecs[name].build(cfg)
		if err != nil {
			return 0, err
		}
		defer oenv.s.Close()
		// Its numerical check belongs to its own workload; here only errors
		// and repetition count.
		var same firstThenSame
		return median(timedOps(0, max(1, cfg.sc.tracedOps-1), rec, oenv.solve, same.check)), nil
	}
	switch cfg.workload {
	case "full_dc_1024":
		seq, err := other("full_dc_1024_seq")
		if err != nil {
			return err
		}
		rec.Metrics.set("sched.speedup_vs_seq", seq/median(refSecs))
	case "onestage_dc_1024":
		two, err := other("full_dc_1024")
		if err != nil {
			return err
		}
		rec.Metrics.set("fig4.speedup", median(refSecs)/two)
	}
	rec.Spans = spans.spans
	rec.finish(chk)
	return nil
}
