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
	// A wide C is applied as two column halves when the job lends a helper.
	var help *sched.Helper
	parts := 1
	if job.Workers() >= 2 && m >= 2*blas.DefaultNC {
		help, parts = job.Helper("APPLYQ"), 2
		defer help.End()
	}
	cols := (m + parts - 1) / parts
	rmax := n - 1
	nT, nStore := nb*nb, householder.PackedLen(false, rmax, nb, form)
	nApply := householder.ApplyWork(blas.Left, rmax, nb, cols)
	nWork := max(householder.PrepareWork(rmax, nb), parts*nApply)
	buf := ws.Floats(work.OneStageWork, nT+nStore+nWork, false)
	tmat, store, wk := buf[:nT], buf[nT:nT+nStore], buf[nT+nStore:]
	var h householder.Block

	// Panels of reflectors [i0, i0+pb). For Q·C apply the last panel first;
	// for Qᵀ·C apply in forward order.
	type panel struct{ i0, pb int }
	var panels []panel
	for i0 := 0; i0 < nr; i0 += nb {
		panels = append(panels, panel{i0, min(nb, nr-i0)})
	}
	if trans == blas.NoTrans {
		for i := 0; i < len(panels)/2; i++ {
			panels[i], panels[len(panels)-1-i] = panels[len(panels)-1-i], panels[i]
		}
	}
	for _, p := range panels {
		// Reflector i0+j has its implicit unit at row i0+j+1, so the V
		// submatrix for the panel is a[i0+1: , i0 : i0+pb].
		rows := n - p.i0 - 1
		v := a.Data[(p.i0+1)+p.i0*a.Stride:]
		householder.Larft(rows, p.pb, v, a.Stride, tau[p.i0:p.i0+p.pb], tmat, p.pb)
		csub := c.View(p.i0+1, 0, rows, m)
		h.Prepare(false, rows, p.pb, v, a.Stride, tmat, p.pb, form, store, wk)
		apply := func(part int) {
			j0 := part * cols
			h.Apply(blas.Left, trans, min(cols, m-j0), csub.Data[j0*csub.Stride:], csub.Stride,
				wk[part*nApply:(part+1)*nApply])
		}
		if help != nil {
			help.Split(func() { apply(0) }, func() { apply(1) })
		} else {
			apply(0)
		}
		tc.AddFlops(trace.KLarfb, 4*int64(rows)*int64(m)*int64(p.pb))
	}
}
