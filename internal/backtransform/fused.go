package backtransform

import (
	"repro/internal/band"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// ApplyFused computes E := Q₁·(Q₂·E) in a single pass over E. The paper's
// Figure 3c partitioning makes each column block of E independent through
// *both* back-transformation factors, so instead of streaming the whole
// matrix through memory once per factor with a global barrier in between,
// one task per block applies every Q₂ diamond and then the full Q₁
// tile-reflector sequence while the block is cache-hot. f must be the
// stage-1 factor of the same reduction the plan's chase consumed (f.N == n).
//
// colBlock ≤ 0 picks the defaultColBlock width. With a scheduler-backed job
// each block runs on its own worker with a retained worker-owned slab (no
// per-task allocation); a nil or inline job runs the blocks sequentially on
// one shared workspace, stopping at a block boundary on cancellation (the
// caller must check job.Err and discard E). The result is bitwise identical
// to ApplyBlock followed by f.ApplyQ1Block over the whole of E, at any
// colBlock and worker count. tc may be nil; the Q₂/Q₁ flop shares are
// attributed to trace.PhaseUpdateQ2/PhaseUpdateQ1 via AttributeFlops.
func (p *Plan) ApplyFused(f *band.Factor, e *matrix.Dense, job *sched.Job, colBlock int, tc *trace.Collector) {
	if e.Rows != p.n {
		panic("backtransform: E row count mismatch")
	}
	if f.N != p.n {
		panic("backtransform: stage-1 factor order mismatch")
	}
	if e.Cols == 0 {
		return
	}
	if colBlock <= 0 {
		colBlock = defaultColBlock(e.Cols, f.NB, job.Workers())
	}
	// One workspace serves both halves of a task.
	wkLen := max(p.Work(), f.Q1Work())
	q2PerCol, q1PerCol := p.FlopsPerCol(), f.Q1FlopsPerCol()
	runBlock := func(view *matrix.Dense, wk []float64) {
		p.ApplyBlock(view, wk, tc)
		f.ApplyQ1Block(view, wk, tc)
		tc.AttributeFlops(trace.PhaseUpdateQ2, q2PerCol*int64(view.Cols))
		tc.AttributeFlops(trace.PhaseUpdateQ1, q1PerCol*int64(view.Cols))
	}
	if !job.Parallel() {
		wk := p.ws.Floats(work.FusedApply, wkLen, false)
		for j0 := 0; j0 < e.Cols; j0 += colBlock {
			if job.Canceled() {
				return
			}
			jb := min(colBlock, e.Cols-j0)
			runBlock(e.View(0, j0, p.n, jb), wk)
		}
		return
	}
	slabs := p.ws.WorkerSlabs(work.FusedApply, job.Workers(), wkLen)
	for j0 := 0; j0 < e.Cols; j0 += colBlock {
		jb := min(colBlock, e.Cols-j0)
		view := e.View(0, j0, p.n, jb)
		job.Submit(sched.Task{
			Name: "BACKTRANS",
			Run: func(w int) {
				runBlock(view, slabs.For(w))
			},
		})
	}
	job.Wait()
}
