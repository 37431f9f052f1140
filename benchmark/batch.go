package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	eigen "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

// batchEnv is a set-up batch_mixed_small: the items generated, a Solver
// with W workers built, one warm-up SolveBatch done.
type batchEnv struct {
	items []input
	batch []eigen.BatchItem
	s     *eigen.Solver
}

func buildBatch(cfg config, tc *trace.Collector) (*batchEnv, error) {
	e := &batchEnv{items: mixedItems(rand.New(rand.NewSource(cfg.seed)), cfg.sc)}
	for _, in := range e.items {
		e.batch = append(e.batch, eigen.BatchItem{A: in.a})
	}
	e.s = eigen.NewSolver(&eigen.Options{Workers: cfg.workers, Collector: tc})
	if _, err := e.solve(); err != nil {
		e.s.Close()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return e, nil
}

// solve is the timed operation: one SolveBatch call over all items. The
// call itself never fails; the first item error stands for the batch.
func (e *batchEnv) solve() ([]eigen.BatchResult, error) {
	rs := e.s.SolveBatch(context.Background(), e.batch)
	for i, r := range rs {
		if r.Err != nil {
			return rs, fmt.Errorf("item %d: %w", i, r.Err)
		}
	}
	return rs, nil
}

// batchGate applies the repetition gate item by item.
type batchGate struct {
	items []input
	gates []firstThenSame
	chk   *checker
}

func newBatchGate(e *batchEnv, chk *checker, corrupt bool) *batchGate {
	g := &batchGate{items: e.items, gates: make([]firstThenSame, len(e.items)), chk: chk}
	g.gates[0].corrupt = corrupt
	return g
}

func (g *batchGate) check(i int, rs []eigen.BatchResult) error {
	var first error
	for k, r := range rs {
		if err := g.gates[k].check(i, result{r.Values, r.Vectors}); err != nil && first == nil {
			first = fmt.Errorf("item %d: %w", k, err)
		}
	}
	return first
}

// verifyFirst checks every item of the first batch from first principles.
func (g *batchGate) verifyFirst() error {
	for k := range g.gates {
		if err := g.gates[k].verifyFirst(g.chk, g.items[k].ad); err != nil {
			return fmt.Errorf("item %d: %w", k, err)
		}
	}
	return nil
}

func runBatch(cfg config, rec *runRecord) error {
	if cfg.traced {
		return runBatchTraced(cfg, rec)
	}
	env, setupS, err := medianSetup(cfg.sc.setupReps,
		func() (*batchEnv, error) { return buildBatch(cfg, nil) },
		func(e *batchEnv) { e.s.Close() })
	if err != nil {
		return err
	}
	defer env.s.Close()
	chk := &checker{}
	gate := newBatchGate(env, chk, cfg.corrupt)
	secs := timedOps(cfg.seconds, cfg.sc.minOps, rec, env.solve, gate.check)
	rec.reportEndToEnd(setupS, secs, len(env.items))
	rec.op(gate.verifyFirst())
	rec.finish(chk)
	return nil
}

func runBatchTraced(cfg config, rec *runRecord) error {
	env, err := buildBatch(cfg, nil)
	if err != nil {
		return err
	}
	defer env.s.Close()
	// Reference: plain SolveBatch calls.
	chk := &checker{}
	gate := newBatchGate(env, chk, cfg.corrupt)
	refSecs := rec.referenceOps(func() []float64 { return timedOps(0, cfg.sc.tracedOps, rec, env.solve, gate.check) })
	rec.op(gate.verifyFirst())

	spans := newRecorder()
	roof := measureRoofline(cfg.sc, spans)
	roof.emit(rec)
	batchS := median(refSecs)

	// The same batch on a Solver with a Collector: per-item admission wait,
	// and what attaching the Collector costs.
	tenv, err := buildBatch(cfg, trace.New())
	if err != nil {
		return err
	}
	var waits []float64
	var collected []eigen.BatchResult
	collectedS := timedOps(0, 1, rec, tenv.solve, func(_ int, rs []eigen.BatchResult) error {
		collected = rs
		return gate.check(1, rs) // must equal the reference batch bit for bit
	})
	tenv.s.Close()
	for _, r := range collected {
		if r.Trace != nil {
			waits = append(waits, r.Trace.PhaseTime(trace.PhaseBatchWait).Seconds()*1e3)
		}
	}
	rec.Metrics.set("eigen.batch_wait_ms_p50", median(waits))
	rec.Metrics.set("trace.overhead_frac", median(collectedS)/batchS-1)

	// The useful-parallelism ratio: a sequential Eig loop over the same
	// items on the same Solver, against one SolveBatch call.
	var loopS float64
	for k, in := range env.items {
		start := time.Now()
		res, err := env.s.Eig(in.a)
		loopS += time.Since(start).Seconds()
		if err == nil && !sameBits(gate.gates[k].ref, result{res.Values, res.Vectors}) {
			err = fmt.Errorf("item %d: Eig differs bitwise from SolveBatch", k)
		}
		rec.op(err)
	}
	rec.Metrics.set("eigen.batch_vs_loop", loopS/batchS)

	// The layers, from outside: every item phase by phase on a tracing
	// scheduler; the batch's trace is the sum over its items.
	tr := newTracer(spans, cfg.workers)
	defer tr.close()
	co := core.Options{Vectors: true}
	for _, in := range env.items[:min(3, len(env.items))] { // one item per size fills the arena
		if _, _, err := tr.twoStage(in, co); err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
	}
	sum := newOpTrace()
	for k, in := range env.items {
		r, o, err := tr.twoStage(in, co)
		if err == nil && !sameBits(gate.gates[k].ref, r) {
			err = fmt.Errorf("item %d: traced phase-by-phase result differs bitwise from SolveBatch's", k)
		}
		rec.op(err)
		if err == nil {
			sum.add(o)
		}
	}
	ag := &tracedAgg{}
	ag.add(sum)
	ag.emit(rec, roof, tr.width())
	rec.Notes["layers"] = ag.table(roof, tr.width())
	rec.Metrics.set("work.arena_mb", float64(tr.ws.Bytes())/1e6)
	rec.Spans = spans.spans
	rec.finish(chk)
	return nil
}
