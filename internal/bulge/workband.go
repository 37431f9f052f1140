package bulge

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/work"
)

// workBand is the extended-band working storage for the chase: the original
// band plus room for the transient bulges, which reach 2b−1 subdiagonals.
// Lower band layout: element (i, j), j ≤ i ≤ j+kd, lives at
// data[(i−j) + j·lda].
type workBand struct {
	n    int
	bw   int // original bandwidth
	kd   int // working bandwidth (≤ 2bw−1)
	lda  int
	data []float64
}

// init copies b into extended-band storage from the arena. The bulge region
// must start zeroed, which the arena guarantees (and a fresh allocation
// trivially provides).
func (w *workBand) init(b *matrix.SymBand, ws *work.Arena) {
	kd := workbandKD(b.N, b.KD)
	*w = workBand{n: b.N, bw: b.KD, kd: kd, lda: kd + 1}
	w.data = ws.Floats(work.Stage2Work, w.lda*b.N, true)
	for j := 0; j < b.N; j++ {
		for i := j; i <= min(b.N-1, j+b.KD); i++ {
			w.data[(i-j)+j*w.lda] = b.Data[(i-j)+j*b.LDA]
		}
	}
}

// workbandKD is the working bandwidth of an order-n band of bandwidth bw:
// room for the bulges' 2bw−1 subdiagonals, within the matrix.
func workbandKD(n, bw int) int { return max(min(2*bw-1, n-1), bw) }

func (w *workBand) at(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if i-j > w.kd {
		return 0
	}
	return w.data[(i-j)+j*w.lda]
}

// col returns the contiguous storage of column j for rows [r0, r0+len).
// The requested rows must lie inside the extended band — a violation would
// silently alias the next column's storage, so it is checked.
func (w *workBand) col(j, r0, length int) []float64 {
	if r0 < j || r0+length-1-j > w.kd {
		panic("bulge: access outside the extended band (delayed-annihilation invariant broken)")
	}
	off := (r0 - j) + j*w.lda
	return w.data[off : off+length]
}

// block returns the rlen×clen block of the band whose first element is
// (r0, c0), as a column-major matrix and its leading dimension. Consecutive
// columns of band storage are lda apart but start one row lower, so the block
// is an ordinary matrix with leading dimension lda−1 (dsbtrd addresses its
// band the same way) and the Level-2 BLAS apply to it as they stand. The
// first and last column go through col, which checks the
// delayed-annihilation invariant at the block's two extreme corners.
func (w *workBand) block(r0, rlen, c0, clen int) ([]float64, int) {
	w.col(c0, r0, rlen)
	w.col(c0+clen-1, r0, rlen)
	return w.data[(r0-c0)+c0*w.lda:], w.lda - 1
}

// larfgColumn generates the reflector annihilating all but the first entry
// of B[r0 : r0+length, c], writes the annihilated column back (beta then
// zeros), and returns tau. u receives the full vector [1; v] the update
// kernels multiply by.
func (w *workBand) larfgColumn(c, r0, length int, u []float64, tc *trace.Collector) float64 {
	x := w.col(c, r0, length)
	beta, tau := householder.Larfg(length, x[0], x[1:], 1)
	u[0] = 1
	copy(u[1:], x[1:])
	x[0] = beta
	clear(x[1:])
	tc.AddFlops(trace.KOther, 3*int64(length))
	return tau
}

// symTwoSided applies H = I − τ·u·uᵀ two-sidedly to the symmetric block of
// the given order at (r0, r0): S := H·S·H via the standard rank-2 form
// S −= u·wᵀ + w·uᵀ, w = τ·S·u − (τ²/2)(uᵀSu)·u. p is scratch for w.
func (w *workBand) symTwoSided(r0, length int, u []float64, tau float64, p []float64, tc *trace.Collector) {
	if tau == 0 || length == 0 {
		return
	}
	w.col(r0, r0, length)
	w.col(r0+length-1, r0+length-1, 1)
	s, ld := w.data[r0*w.lda:], w.lda-1
	blas.Dsymv(blas.Lower, length, tau, s, ld, u, 1, 0, p, 1)
	blas.Daxpy(length, -0.5*tau*blas.Ddot(length, u, 1, p, 1), u, 1, p, 1)
	blas.Dsyr2(blas.Lower, length, -1, u, 1, p, 1, s, ld)
	tc.AddFlops(trace.KSymv, 4*int64(length)*int64(length))
}

// rightUpdate applies H from the right to the block
// G = B[r0 : r0+rlen, c0 : c0+clen]:  G := G·(I − τ·u·uᵀ), u over the
// columns. This is the bulge-creating update of xHBREL. t is scratch for G·u.
func (w *workBand) rightUpdate(r0, rlen, c0, clen int, u []float64, tau float64, t []float64, tc *trace.Collector) {
	if tau == 0 || rlen == 0 || clen == 0 {
		return
	}
	g, ld := w.block(r0, rlen, c0, clen)
	blas.Dgemv(blas.NoTrans, rlen, clen, 1, g, ld, u, 1, 0, t, 1)
	blas.Dger(rlen, clen, -tau, t, 1, u, 1, g, ld)
	tc.AddFlops(trace.KGemv, 4*int64(rlen)*int64(clen))
}

// leftUpdate applies H from the left to the block
// G = B[r0 : r0+rlen, c0 : c0+clen]:  G := (I − τ·u·uᵀ)·G, u over the rows.
// This is the delayed-annihilation update of xHBREL after the bulge's first
// column has been eliminated. t is scratch for Gᵀ·u.
func (w *workBand) leftUpdate(r0, rlen, c0, clen int, u []float64, tau float64, t []float64, tc *trace.Collector) {
	if tau == 0 || rlen == 0 || clen == 0 {
		return
	}
	g, ld := w.block(r0, rlen, c0, clen)
	blas.Dgemv(blas.Trans, rlen, clen, 1, g, ld, u, 1, 0, t, 1)
	blas.Dger(rlen, clen, -tau, u, 1, t, 1, g, ld)
	tc.AddFlops(trace.KGemv, 4*int64(rlen)*int64(clen))
}

// extractTridiagonal reads T off the fully chased band into t, drawing the
// d/e storage from the arena (fresh when ws is nil).
func (w *workBand) extractTridiagonal(ws *work.Arena, t *matrix.Tridiagonal) {
	t.D = ws.Floats(work.Stage2OutD, w.n, false)
	t.E = ws.Floats(work.Stage2OutE, max(0, w.n-1), false)
	for i := 0; i < w.n; i++ {
		t.D[i] = w.at(i, i)
		if i+1 < w.n {
			t.E[i] = w.at(i+1, i)
		}
	}
}
