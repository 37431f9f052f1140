package main

import (
	"context"
	"fmt"
	"maps"
	"math"

	eigen "repro"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/onestage"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tridiag"
	"repro/internal/work"
)

// The traced pass decomposes a solve from outside: the benchmark drives the
// program's own phases one call at a time and puts a span around each, so
// no span lives inside the program. layerOf maps the driver's phase names
// to the module whose entry point the phase calls.
var layerOf = map[string]string{
	trace.PhaseStage1:    "band.reduce",
	trace.PhaseStage2:    "bulge.chase",
	trace.PhaseEigT:      "tridiag.solve",
	trace.PhaseBacktrans: "backtransform.apply",
}

// kernelClasses are the Collector's flop classes, in reporting order.
var kernelClasses = []string{trace.KGemm, trace.KLarfb, trace.KSyrk, trace.KTrmm, trace.KSymv, trace.KGemv, trace.KLarf, trace.KOther}

// eigTParts are the attribution-only sub-phases of the tridiagonal stage.
var eigTParts = []string{trace.PhaseEigTRecurse, trace.PhaseEigTMerge, trace.PhaseEigTBisect, trace.PhaseEigTStein}

// symTol mirrors the public Solver's input-symmetry tolerance, so the
// replayed input scan does the same work.
const symTol = 1e-10

// opTrace is what one traced operation measured. Operations add up: the
// trace of a batch is the sum over its items.
type opTrace struct {
	solve    float64            // root span
	overhead float64            // spans around the work outside the phase plan
	layerS   map[string]float64 // layer → seconds of its phase span
	layerF   map[string]int64   // layer → flops counted during the span
	class    map[string]int64   // kernel class → flops over the operation
	tasks    int
	busy     float64   // Σ task run time over all workers
	taskUS   []float64 // per-task run time, microseconds
}

func newOpTrace() *opTrace {
	return &opTrace{layerS: map[string]float64{}, layerF: map[string]int64{}, class: map[string]int64{}}
}

func (o *opTrace) phaseSum() float64 {
	var s float64
	for _, v := range o.layerS {
		s += v
	}
	return s
}

func (o *opTrace) add(p *opTrace) {
	o.solve += p.solve
	o.overhead += p.overhead
	for k, v := range p.layerS {
		o.layerS[k] += v
	}
	for k, v := range p.layerF {
		o.layerF[k] += v
	}
	for k, v := range p.class {
		o.class[k] += v
	}
	o.tasks += p.tasks
	o.busy += p.busy
	o.taskUS = append(o.taskUS, p.taskUS...)
}

// tracer owns what the traced pass threads through every phase call: the
// span recorder, a Collector reset after each phase, a scheduler that
// records its tasks (nil for a sequential workload), and a retained arena.
type tracer struct {
	rec    *recorder
	tc     *trace.Collector
	ts     *sched.Scheduler
	ws     *work.Arena
	set    *tridiag.WorkSet // one-stage sequence only
	seen   int              // scheduler events already attributed
	solves int              // solve ids handed out
}

func newTracer(rec *recorder, workers int) *tracer {
	tr := &tracer{rec: rec, tc: trace.New(), ws: work.NewArena()}
	if workers > 1 {
		tr.ts = sched.New(workers, sched.WithTrace())
	}
	return tr
}

func (tr *tracer) close() {
	if tr.ts != nil {
		tr.ts.Shutdown()
	}
}

func (tr *tracer) width() int {
	if tr.ts == nil {
		return 1
	}
	return tr.ts.Workers()
}

// layer runs one phase call inside a span named after its layer, then
// attributes the flops the Collector counted during it and resets the
// Collector for the next phase.
func (tr *tracer) layer(root, id int, name string, o *opTrace, fn func()) {
	o.layerS[name] += tr.rec.in(name, root, id, fn)
	for _, k := range kernelClasses {
		f := tr.tc.Flops(k)
		o.layerF[name] += f
		o.class[k] += f
	}
	// The tridiagonal solvers count no kernel class; they credit coarse
	// estimates to sub-phases, which is all there is to rate eig_t by.
	for _, p := range eigTParts {
		o.layerF[name] += tr.tc.AttributedFlops(p)
	}
	tr.tc.Reset()
}

// finish closes an operation's root span and then, outside it, attributes
// the tasks the scheduler ran since the previous operation. Scheduler.Trace
// copies every event recorded so far, which is why it is read once per
// operation and never between phases.
func (tr *tracer) finish(root int, o *opTrace) {
	o.solve = tr.rec.end(root)
	if tr.ts == nil {
		return
	}
	evs := tr.ts.Trace()
	for _, e := range evs[tr.seen:] {
		d := (e.End - e.Start).Seconds()
		o.busy += d
		o.taskUS = append(o.taskUS, d*1e6)
	}
	o.tasks += len(evs) - tr.seen
	tr.seen = len(evs)
}

// outside runs work the public Solver does around the phase plan (input
// scans, state set-up, result hand-over) inside an overhead span.
func (tr *tracer) outside(root, id int, name string, o *opTrace, fn func()) {
	o.overhead += tr.rec.in(name, root, id, fn)
}

// scanInput replays the Solver's two O(n²) input checks.
func scanInput(ad *matrix.Dense) error {
	for _, v := range ad.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return eigen.ErrNotFinite
		}
	}
	if !ad.IsSymmetric(symTol * ad.MaxAbs()) {
		return fmt.Errorf("input is not symmetric")
	}
	return nil
}

// twoStage solves in with the two-stage plan, one Phase.Run at a time.
func (tr *tracer) twoStage(in input, co core.Options) (result, *opTrace, error) {
	ctx := context.Background()
	id := tr.solves
	tr.solves++
	o := newOpTrace()
	co.Sched, co.Arena, co.Collector = tr.ts, tr.ws, tr.tc
	root := tr.rec.begin("solve", -1, id)
	var err error
	var st *core.SolveState
	var plan core.Plan
	tr.outside(root, id, "eigen.scan", o, func() { err = scanInput(in.ad) })
	if err == nil {
		tr.outside(root, id, "core.new_state", o, func() { st, plan, err = core.NewSolveState(ctx, in.ad, co) })
	}
	if err != nil {
		tr.finish(root, o)
		return result{}, o, err
	}
	defer st.Close()
	for _, ph := range plan {
		name, ok := layerOf[ph.Name()]
		if !ok {
			name = "core." + ph.Name() // a phase this benchmark predates still adds up
		}
		tr.layer(root, id, name, o, func() { err = ph.Run(ctx, st) })
		if err != nil {
			tr.finish(root, o)
			return result{}, o, err
		}
	}
	var res *core.Result
	tr.outside(root, id, "core.result", o, func() { res = st.Result() })
	tr.finish(root, o)
	return fromCore(res.Values, res.Vectors), o, nil
}

// oneStage solves in with the direct call sequence of the one-stage driver:
// onestage.Sytrd, tridiag.StedcSched, onestage.ApplyQ.
func (tr *tracer) oneStage(in input) (result, *opTrace, error) {
	id := tr.solves
	tr.solves++
	o := newOpTrace()
	n := in.ad.Rows
	if tr.set == nil {
		tr.set = tridiag.NewWorkSet(tr.width())
	}
	root := tr.rec.begin("solve", -1, id)
	var err error
	var aw *matrix.Dense
	tr.outside(root, id, "eigen.scan", o, func() { err = scanInput(in.ad) })
	if err != nil {
		tr.finish(root, o)
		return result{}, o, err
	}
	tr.outside(root, id, "core.copy_in", o, func() {
		aw = tr.ws.Dense(work.Stage1Dense, n, n, false)
		aw.CopyFrom(in.ad)
	})
	var d, e, tau []float64
	tr.layer(root, id, "onestage.sytrd", o, func() { d, e, tau = onestage.Sytrd(aw, 0, tr.ws, tr.tc) })
	var vals []float64
	var evecs *matrix.Dense
	tr.layer(root, id, "tridiag.solve", o, func() {
		var job *sched.Job
		if tr.ts != nil {
			job = tr.ts.NewJob(context.Background())
		}
		var dv []float64
		var q *matrix.Dense
		if dv, q, err = tridiag.StedcSched(d, e, tr.set, job, 0, tr.tc); err != nil {
			return
		}
		vals = append([]float64(nil), dv...)
		evecs = q.Clone()
		tr.set.PutVec(dv)
		tr.set.PutMat(q)
		err = job.Err()
	})
	if err != nil {
		tr.finish(root, o)
		return result{}, o, err
	}
	tr.layer(root, id, "onestage.applyq", o, func() { onestage.ApplyQ(aw, tau, blas.NoTrans, evecs, 0, tr.ws, tr.tc) })
	tr.finish(root, o)
	return fromCore(vals, evecs), o, nil
}

// fromCore converts an internal result to the public form the checks take.
func fromCore(vals []float64, z *matrix.Dense) result {
	r := result{vals: vals}
	if z != nil {
		r.vecs = eigen.NewMatrixRect(z.Rows, z.Cols)
		for j := 0; j < z.Cols; j++ {
			for i := 0; i < z.Rows; i++ {
				r.vecs.Set(i, j, z.Data[i+j*z.Stride])
			}
		}
	}
	return r
}

// tracedAgg gathers the traced operations of a run and turns them into the
// per-layer metrics: seconds are medians over the operations, counts come
// from the last one (they repeat exactly; countsRepeat records that).
type tracedAgg struct {
	ops          []*opTrace
	countsRepeat bool
}

func (ag *tracedAgg) add(o *opTrace) {
	if len(ag.ops) == 0 {
		ag.countsRepeat = true
	} else if prev := ag.ops[len(ag.ops)-1]; prev.tasks != o.tasks || !maps.Equal(prev.class, o.class) {
		ag.countsRepeat = false
	}
	ag.ops = append(ag.ops, o)
}

func (ag *tracedAgg) med(f func(*opTrace) float64) float64 {
	v := make([]float64, len(ag.ops))
	for i, o := range ag.ops {
		v[i] = f(o)
	}
	return median(v)
}

// gflops guards the rate of a layer the workload did not run.
func gflops(flops int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(flops) / seconds / 1e9
}

// emit writes the layer, flop-class and scheduler metrics. width is the
// scheduler width the operations ran on (1 for a sequential workload).
func (ag *tracedAgg) emit(rec *runRecord, roof roofline, width int) {
	m := rec.Metrics
	last := ag.ops[len(ag.ops)-1]
	layerS := func(name string) float64 { return ag.med(func(o *opTrace) float64 { return o.layerS[name] }) }

	solve := ag.med(func(o *opTrace) float64 { return o.solve })
	overhead := ag.med(func(o *opTrace) float64 { return o.overhead })
	phaseSum := ag.med((*opTrace).phaseSum)
	m.set("trace.solve_s", solve)
	m.set("eigen.overhead_s", overhead)
	m.set("core.phase_sum_s", phaseSum)
	// The decomposition must add up: what the spans do not cover is the
	// benchmark's own bookkeeping between phases, and it must stay small.
	gap := math.Abs(overhead + phaseSum - solve)
	rec.require(gap <= 0.05*solve+1e-3,
		"decomposition does not add up: overhead %.4fs + phases %.4fs vs traced solve %.4fs", overhead, phaseSum, solve)

	alphaW := roof.alpha * float64(width)
	for _, l := range []string{"band.reduce", "bulge.chase", "tridiag.solve", "backtransform.apply"} {
		s := layerS(l)
		m.set(l+"_s", s)
		m.set(l+"_gflops", gflops(last.layerF[l], s))
	}
	if alphaW > 0 {
		m.set("band.reduce_frac_alpha", gflops(last.layerF["band.reduce"], layerS("band.reduce"))/alphaW)
		m.set("backtransform.apply_frac_alpha", gflops(last.layerF["backtransform.apply"], layerS("backtransform.apply"))/alphaW)
	}
	m.set("onestage.sytrd_s", layerS("onestage.sytrd"))
	m.set("onestage.applyq_s", layerS("onestage.applyq"))
	if roof.beta > 0 {
		// Sytrd is sequential, so its ceiling is one core's β.
		m.set("onestage.sytrd_frac_beta", gflops(last.layerF["onestage.sytrd"], layerS("onestage.sytrd"))/roof.beta)
	}

	var total int64
	for _, k := range kernelClasses {
		m.set("trace.flops_"+k, float64(last.class[k]))
		total += last.class[k]
	}
	m.set("trace.flops_total", float64(total))
	rec.Notes["counts_repeat"] = fmt.Sprint(ag.countsRepeat)

	if width > 1 {
		busy := ag.med(func(o *opTrace) float64 { return o.busy })
		wall := float64(width) * phaseSum
		m.set("sched.tasks", float64(last.tasks))
		m.set("sched.busy_s", busy)
		m.set("sched.stall_s", wall-busy)
		m.set("sched.utilization", busy/wall)
		m.set("sched.task_us_p50", median(last.taskUS))
	}
}

// table renders the per-layer table of one workload: seconds, achieved
// rate, and that rate as a fraction of the roofline it runs under.
func (ag *tracedAgg) table(roof roofline, width int) string {
	last := ag.ops[len(ag.ops)-1]
	out := fmt.Sprintf("  %-22s %10s %10s %14s\n", "layer", "seconds", "Gflop/s", "of roofline")
	names := []string{"band.reduce", "bulge.chase", "onestage.sytrd", "tridiag.solve", "backtransform.apply", "onestage.applyq"}
	for _, l := range names {
		s := ag.med(func(o *opTrace) float64 { return o.layerS[l] })
		if s == 0 {
			continue
		}
		g := gflops(last.layerF[l], s)
		roofName, ceil := fmt.Sprintf("α·%d", width), roof.alpha*float64(width)
		if l == "onestage.sytrd" {
			roofName, ceil = "β", roof.beta
		}
		frac := 0.0
		if ceil > 0 {
			frac = g / ceil
		}
		out += fmt.Sprintf("  %-22s %10.4f %10.2f %8.2f of %s\n", l, s, g, frac, roofName)
	}
	return out
}
