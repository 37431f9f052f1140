// Package band implements stage 1 of the two-stage reduction: the
// DAG-scheduled tile algorithm that reduces a dense symmetric matrix to
// symmetric band form, A = Q₁·B·Q₁ᵀ with bandwidth nb (the tile size). The
// panel of each step is QR-factored with the classic tile kernels (GEQRT
// for the top tile, a TSQRT chain for the tiles below) and the resulting
// block reflectors are applied to the trailing submatrix from both sides as
// independent tile tasks, which is what gives the stage its compute-bound,
// Level-3 character (paper §5.1).
package band

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/trace"
)

// Geqrt computes the QR factorization of an m×n tile in place:
// A = Q·R with R in the upper triangle and the reflector essentials below
// the diagonal. t receives the k×k (k = min(m,n)) triangular factor of the
// compact WY representation. Equivalent to PLASMA's CORE_dgeqrt with inner
// blocking disabled.
func Geqrt(m, n int, a []float64, lda int, t []float64, ldt int, work []float64, tc *trace.Collector) {
	k := min(m, n)
	tau := work[:k]
	scratch := work[k : k+n]
	for i := 0; i < k; i++ {
		var beta float64
		beta, tau[i] = householder.Larfg(m-i, a[i+i*lda], a[i+1+i*lda:], 1)
		// Apply H_i to the trailing columns, using the stored essentials
		// with an explicit temporary 1 on the diagonal.
		if i+1 < n {
			aii := a[i+i*lda]
			a[i+i*lda] = 1
			householder.Larf(blas.Left, m-i, n-i-1, a[i+i*lda:], 1, tau[i], a[i+(i+1)*lda:], lda, scratch)
			a[i+i*lda] = aii
		}
		a[i+i*lda] = beta
	}
	householder.Larft(m, k, a, lda, tau, t, ldt)
	tc.AddFlops(trace.KLarf, 2*int64(m)*int64(n)*int64(k))
}

// Ormqr applies the prepared block reflector of a Geqrt panel to a tile c
// with n free columns (Left: C := op(H)·C, the reflector spans C's rows) or
// n free rows (Right: C := C·op(H), it spans C's columns). work must hold
// householder.ApplyWork for the side.
func Ormqr(side blas.Side, trans blas.Transpose, n int, h *householder.Block, c []float64, ldc int, work []float64, tc *trace.Collector) {
	h.Apply(side, trans, n, c, ldc, work)
	rows, k := h.Shape()
	tc.AddFlops(trace.KLarfb, 4*int64(rows)*int64(n)*int64(k))
}

// Tsqrt computes the QR factorization of the "triangle-on-top-of-square"
// stack [R; A2], where R is the nb×nb upper triangle held in a1 and A2 is an
// m2×nb tile. Because R is triangular, each reflector j has the structure
// v_j = [e_j ; v2_j]: the top part is an identity column and only the dense
// part v2_j (length m2) needs storing — it overwrites column j of a2. R is
// updated in place; t receives the nb×nb triangular block factor; work must
// hold 2nb floats. Equivalent to PLASMA's CORE_dtsqrt.
func Tsqrt(nb, m2 int, a1 []float64, lda1 int, a2 []float64, lda2 int, t []float64, ldt int, work []float64, tc *trace.Collector) {
	tau, w := work[:nb], work[nb:2*nb]
	for j := 0; j < nb; j++ {
		// Reflector from [R[j,j]; A2[:,j]].
		beta, tj := householder.Larfg(m2+1, a1[j+j*lda1], a2[j*lda2:], 1)
		a1[j+j*lda1] = beta
		tau[j] = tj
		if nt := nb - j - 1; tj != 0 && nt > 0 {
			// Apply to the trailing columns, all at once:
			// w = R[j,j+1:] + v2ᵀ·A2[:,j+1:]; R[j,j+1:] -= τ·w; A2[:,j+1:] -= τ·v2·wᵀ.
			v2, r, trail := a2[j*lda2:], a1[j+(j+1)*lda1:], a2[(j+1)*lda2:]
			for jj := range w[:nt] {
				w[jj] = r[jj*lda1]
			}
			blas.Dgemv(blas.Trans, m2, nt, 1, trail, lda2, v2, 1, 1, w, 1)
			blas.Daxpy(nt, -tj, w, 1, r, lda1)
			blas.Dger(m2, nt, -tj, v2, 1, w, 1, trail, lda2)
		}
	}
	// Build T: T[0:j, j] = −τ_j · T[0:j,0:j] · (V2[:,0:j]ᵀ · v2_j); the
	// identity top parts contribute nothing across distinct columns.
	for j := 0; j < nb; j++ {
		if tau[j] == 0 {
			for i := 0; i <= j; i++ {
				t[i+j*ldt] = 0
			}
			continue
		}
		if j > 0 {
			blas.Dgemv(blas.Trans, m2, j, -tau[j], a2, lda2, a2[j*lda2:], 1, 0, t[j*ldt:], 1)
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, j, t, ldt, t[j*ldt:], 1)
		}
		t[j+j*ldt] = tau[j]
	}
	tc.AddFlops(trace.KLarf, 2*int64(m2+1)*int64(nb)*int64(nb))
}

// Tsmqr applies the prepared TS block reflector of a Tsqrt tile (k
// reflectors, dense part m2 rows) to a pair of tiles, H = I − V·op(T)·Vᵀ with
// V = [I_k ; V2]:
//
//	side = Left:  [A1; A2] := op(H)·[A1; A2], A1 is k×n, A2 is m2×n.
//	side = Right: [A1, A2] := [A1, A2]·op(H), A1 is n×k, A2 is n×m2
//	              (the columns of A2 pair with the rows of V2).
//
// work must hold householder.ApplyWork for the side. Equivalent to PLASMA's
// CORE_dtsmqr.
func Tsmqr(side blas.Side, trans blas.Transpose, n int, h *householder.Block, a1 []float64, lda1 int, a2 []float64, lda2 int, work []float64, tc *trace.Collector) {
	h.ApplyTS(side, trans, n, a1, lda1, a2, lda2, work)
	m2, k := h.Shape()
	tc.AddFlops(trace.KLarfb, int64(k)*int64(n)*int64(4*m2+k))
}
