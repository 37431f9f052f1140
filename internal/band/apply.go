package band

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/work"
)

// ApplyQ1 computes C := Q₁·C (trans == NoTrans) or C := Q₁ᵀ·C (trans ==
// Trans) where Q₁ is the orthogonal factor of the stage-1 reduction held in
// f. C must have f.N rows.
//
// Parallelization follows the paper's Figure 3c: C is split into column
// blocks and each block is one task that applies the entire reflector
// sequence, so blocks never share data, there is no inter-core
// communication, and each core streams its own block through cache. A nil
// (or inline) job runs the blocks sequentially with one shared workspace;
// a canceled job stops at a block boundary, leaving C partially updated
// (the caller must check job.Err and discard). colBlock ≤ 0 picks the shared
// tune.ColBlock default.
func (f *Factor) ApplyQ1(trans blas.Transpose, c *matrix.Dense, job *sched.Job, colBlock int, tc *trace.Collector) {
	if c.Rows != f.N {
		panic("band: ApplyQ1 dimension mismatch")
	}
	if c.Cols == 0 {
		return
	}
	if colBlock <= 0 {
		colBlock = tune.ColBlock(c.Cols, f.NB, job.Workers())
	}
	if !job.Parallel() {
		wk := f.ws.Floats(work.Q1Apply, f.Q1Work(), false)
		for j0 := 0; j0 < c.Cols; j0 += colBlock {
			if job.Canceled() {
				return
			}
			jb := min(colBlock, c.Cols-j0)
			f.applyQ1Block(trans, c.View(0, j0, f.N, jb), wk, tc)
		}
		return
	}
	// Column blocks are disjoint slices of C, so the tasks need no declared
	// dependences; each worker reuses its own retained slab.
	slabs := f.ws.WorkerSlabs(work.Q1Worker, job.Workers(), f.Q1Work())
	for j0, idx := 0, 0; j0 < c.Cols; j0, idx = j0+colBlock, idx+1 {
		jb := min(colBlock, c.Cols-j0)
		view := c.View(0, j0, f.N, jb)
		job.Submit(sched.Task{
			Name: taskName("APPLYQ1", idx, 0),
			Run: func(w int) {
				f.applyQ1Block(trans, view, slabs.For(w), tc)
			},
		})
	}
	job.Wait()
}

// Q1Work is the scratch ApplyQ1Block needs, whatever the block's width.
func (f *Factor) Q1Work() int {
	return householder.ApplyWork(blas.Left, f.NB, f.NB, 0)
}

// ApplyQ1Block applies the full Q₁ (or its transpose) to one column block of
// C. work must hold at least Q1Work() floats. It is the Q₁ half of the fused
// back-transformation task.
func (f *Factor) ApplyQ1Block(trans blas.Transpose, c *matrix.Dense, work []float64, tc *trace.Collector) {
	f.applyQ1Block(trans, c, work, tc)
}

// Q1FlopsPerCol returns the flops ApplyQ1 spends per column of C (the
// Ormqr/Tsmqr costs summed over the whole reflector sequence). The fused
// back-transformation uses it to attribute the Q₁ share of its single
// wall-clock phase.
func (f *Factor) Q1FlopsPerCol() int64 {
	var flops int64
	nb := int64(f.NB)
	for k := 0; k <= f.NT-2; k++ {
		m1 := int64(f.A.TileRows(k + 1))
		kr := int64(f.PanelReflectors(k))
		flops += 4 * m1 * kr // Ormqr on the panel's row tile
		for i := k + 2; i <= f.NT-1; i++ {
			m2 := int64(f.A.TileRows(i))
			flops += nb * (4*m2 + nb) // Tsmqr on row pair (k+1, i)
		}
	}
	return flops
}

// applyQ1Block applies the full Q₁ (or its transpose) to one column block.
// work must hold at least Q1Work() floats.
func (f *Factor) applyQ1Block(trans blas.Transpose, c *matrix.Dense, work []float64, tc *trace.Collector) {
	nt, nb := f.NT, f.NB
	m := c.Cols

	// Q₁ = Q_0·Q_1⋯Q_{nt-2}, and within a panel Q_k = G_k·S_{k+2}⋯S_{nt-1}.
	// For Q₁·C operators apply right-to-left (k descending, i descending,
	// G last); for Q₁ᵀ·C everything reverses and transposes.
	apG := func(k int) {
		row := c.View((k+1)*nb, 0, f.A.TileRows(k+1), m)
		Ormqr(blas.Left, trans, m, &f.Hge[k], row.Data, row.Stride, work, tc)
	}
	apS := func(k, i int) {
		m2 := f.A.TileRows(i)
		a1 := c.View((k+1)*nb, 0, nb, m)
		a2 := c.View(i*nb, 0, m2, m)
		Tsmqr(blas.Left, trans, m, &f.Hts[k][i-(k+2)], a1.Data, a1.Stride, a2.Data, a2.Stride, work, tc)
	}
	if trans == blas.NoTrans {
		for k := nt - 2; k >= 0; k-- {
			for i := nt - 1; i >= k+2; i-- {
				apS(k, i)
			}
			apG(k)
		}
	} else {
		for k := 0; k <= nt-2; k++ {
			apG(k)
			for i := k + 2; i <= nt-1; i++ {
				apS(k, i)
			}
		}
	}
}

// BuildQ1 forms Q₁ explicitly (for tests and small problems).
func (f *Factor) BuildQ1(tc *trace.Collector) *matrix.Dense {
	q := matrix.Eye(f.N)
	f.ApplyQ1(blas.NoTrans, q, nil, 0, tc)
	return q
}
