package band

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// Q1Work is the scratch ApplyQ1Block needs, whatever the block's width.
func (f *Factor) Q1Work() int {
	return householder.ApplyWork(blas.Left, f.NB, f.NB, 0)
}

// Q1FlopsPerCol returns the flops ApplyQ1Block spends per column of C (the
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

// ApplyQ1Block computes C := Q₁·C, where Q₁ is the orthogonal factor of the
// stage-1 reduction held in f and c is C or any column block of it: the
// columns never interact (the paper's Figure 3c), so the fused
// back-transformation gives each of its tasks one block and the result does
// not depend on the partition. c must have f.N rows; work must hold at least
// Q1Work() floats.
func (f *Factor) ApplyQ1Block(c *matrix.Dense, work []float64, tc *trace.Collector) {
	nt, nb := f.NT, f.NB
	m := c.Cols

	// Q₁ = Q_0·Q_1⋯Q_{nt-2}, and within a panel Q_k = G_k·S_{k+2}⋯S_{nt-1},
	// so the operators apply right-to-left: k descending, i descending, G
	// last.
	for k := nt - 2; k >= 0; k-- {
		a1 := c.View((k+1)*nb, 0, f.A.TileRows(k+1), m)
		for i := nt - 1; i >= k+2; i-- {
			a2 := c.View(i*nb, 0, f.A.TileRows(i), m)
			Tsmqr(blas.Left, blas.NoTrans, m, &f.Hts[k][i-(k+2)], a1.Data, a1.Stride, a2.Data, a2.Stride, work, tc)
		}
		Ormqr(blas.Left, blas.NoTrans, m, &f.Hge[k], a1.Data, a1.Stride, work, tc)
	}
}
