package onestage

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// ApplyQ applies the orthogonal matrix Q from Sytrd (packed in the lower
// triangle of a, with scales tau) to the n×m matrix c from the left:
//
//	trans = NoTrans:  C := Q·C
//	trans = Trans:    C := Qᵀ·C
//
// Q = H_0·H_1⋯H_{n−3}, where reflector i acts on rows i+1..n−1. The
// application is blocked with panel width nb — each panel's compact-WY
// reflector is formed (Larft), prepared once (householder.Block) and applied
// to all of C — which is what makes the one-stage back-transformation run at
// Level-3 speed (the "Update Z = 2n³·f" term in the paper's Eq. 4). This is
// the equivalent of LAPACK's DORMTR(side='L', uplo='L'). ApplyQ runs on the
// calling goroutine alone: it is ApplyQJob on a nil job.
func ApplyQ(a *matrix.Dense, tau []float64, trans blas.Transpose, c *matrix.Dense, nb int, ws *work.Arena, tc *trace.Collector) {
	ApplyQJob(a, tau, trans, c, nb, nil, ws, tc)
}

// ApplyQJob is ApplyQ on a job. On a job of two or more workers a C of at
// least 2·blas.DefaultNC columns is applied as two column halves, one on the
// calling goroutine and the other on the job's helper task (sched.Helper).
// Column ranges of C are independent under a Left application and the result
// does not depend on how they are cut, so it is ApplyQ's bits.
func ApplyQJob(a *matrix.Dense, tau []float64, trans blas.Transpose, c *matrix.Dense, nb int, job *sched.Job, ws *work.Arena, tc *trace.Collector) {
	n := a.Rows
	if a.Cols != n {
		panic("onestage: ApplyQ requires square a")
	}
	if c.Rows != n {
		panic("onestage: ApplyQ dimension mismatch")
	}
	if nb <= 0 {
		nb = DefaultNB
	}
	if n <= 1 {
		return
	}
	m := c.Cols
	nr := n - 1 // number of reflector slots (tau has n−1 entries; last may be 0)
	// One panel is live at a time: its T factor, its packed form and the
	// scratch to prepare and apply it share one retained buffer.
	form := householder.FormH
	if trans == blas.Trans {
		form = householder.FormHT
	}
	// A wide C is applied as two column halves when the job lends a helper;
	// on a nil job q stays on the stack and nothing is allocated.
	var one colHalves
	q := &one
	parts := 1
	if job.Workers() >= 2 && m >= 2*blas.DefaultNC {
		q, parts = newColHalves(job.Helper("APPLYQ")), 2
		defer q.help.End()
	}
	q.trans, q.m, q.cols, q.ldc = trans, m, (m+parts-1)/parts, c.Stride
	rmax := n - 1
	nT, nStore := nb*nb, householder.PackedLen(false, rmax, nb, form)
	q.nApply = householder.ApplyWork(blas.Left, rmax, nb, q.cols)
	nWork := max(householder.PrepareWork(rmax, nb), parts*q.nApply)
	buf := ws.Floats(work.OneStageWork, nT+nStore+nWork, false)
	tmat, store := buf[:nT], buf[nT:nT+nStore]
	q.wk = buf[nT+nStore:]

	// Panels of reflectors [i0, i0+pb). For Q·C apply the last panel first;
	// for Qᵀ·C apply in forward order.
	panels := (nr + nb - 1) / nb
	for p := 0; p < panels; p++ {
		i0 := p * nb
		if trans == blas.NoTrans {
			i0 = (panels - 1 - p) * nb
		}
		pb := min(nb, nr-i0)
		// Reflector i0+j has its implicit unit at row i0+j+1, so the V
		// submatrix for the panel is a[i0+1: , i0 : i0+pb].
		rows := n - i0 - 1
		v := a.Data[(i0+1)+i0*a.Stride:]
		householder.Larft(rows, pb, v, a.Stride, tau[i0:i0+pb], tmat, pb)
		q.blk.Prepare(false, rows, pb, v, a.Stride, tmat, pb, form, store, q.wk)
		q.c = c.Data[i0+1:]
		if q.help != nil {
			q.help.Split(q.left, q.right)
		} else {
			q.apply(0)
		}
		tc.AddFlops(trace.KLarfb, 4*int64(rows)*int64(m)*int64(pb))
	}
}

// colHalves applies a prepared panel to the rows of C below the panel's
// first row, in column parts of cols columns each.
type colHalves struct {
	blk             householder.Block
	trans           blas.Transpose
	m, cols, nApply int
	c               []float64 // C's rows from the panel's on, stride ldc
	ldc             int
	wk              []float64 // nApply values of scratch per part

	help        *sched.Helper // with two parts: the helper, and the parts'
	left, right func()        // closures, made once per call
}

func newColHalves(help *sched.Helper) *colHalves {
	q := &colHalves{help: help}
	q.left, q.right = func() { q.apply(0) }, func() { q.apply(1) }
	return q
}

func (q *colHalves) apply(part int) {
	j0 := part * q.cols
	q.blk.Apply(blas.Left, q.trans, min(q.cols, q.m-j0), q.c[j0*q.ldc:], q.ldc, q.wk[part*q.nApply:(part+1)*q.nApply])
}
