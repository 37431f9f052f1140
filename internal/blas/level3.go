package blas

// The symmetric and triangular Level 3 routines are thin block
// decompositions over Dgemm: only small diagonal blocks (and the
// substitution base cases of Dtrsm) run scalar loops; all O(n²·k) bulk work
// goes through the packed register-blocked GEMM kernels. The block size and
// recursion cutoffs are compile-time constants so the decomposition — and
// therefore the floating-point result — never depends on the runtime
// Blocking configuration.

// routeBlock is the diagonal-block edge of the Dsyrk/Dsyr2k/Dsymm
// decompositions: matrices at or below this order run the reference scalar
// loops outright.
const routeBlock = 64

// Dsyrk computes C := alpha*op(A)*op(A)ᵀ + beta*C updating only the triangle
// of C selected by uplo. op(A) is n×k.
func Dsyrk(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	rowA, colA := n, k
	if trans == Trans {
		rowA, colA = k, n
	}
	checkMatrix("dsyrk", rowA, colA, a, lda)
	checkMatrix("dsyrk", n, n, c, ldc)
	if n == 0 {
		return
	}
	scaleTriangle(uplo, n, beta, c, ldc)
	if alpha == 0 || k == 0 {
		return
	}
	if n <= routeBlock {
		syrkRef(uplo, trans, n, k, alpha, a, lda, c, ldc)
		return
	}
	for jb := 0; jb < n; jb += routeBlock {
		nb := min(routeBlock, n-jb)
		// Diagonal block: scalar reference loops on the nb×nb sub-triangle.
		if trans == NoTrans {
			syrkRef(uplo, trans, nb, k, alpha, a[jb:], lda, c[jb+jb*ldc:], ldc)
		} else {
			syrkRef(uplo, trans, nb, k, alpha, a[jb*lda:], lda, c[jb+jb*ldc:], ldc)
		}
		// Off-diagonal panel: one rectangular GEMM per block column.
		if uplo == Lower && jb+nb < n {
			rows := n - jb - nb
			if trans == NoTrans {
				Dgemm(NoTrans, Trans, rows, nb, k, alpha, a[jb+nb:], lda, a[jb:], lda, 1, c[jb+nb+jb*ldc:], ldc)
			} else {
				Dgemm(Trans, NoTrans, rows, nb, k, alpha, a[(jb+nb)*lda:], lda, a[jb*lda:], lda, 1, c[jb+nb+jb*ldc:], ldc)
			}
		} else if uplo == Upper && jb > 0 {
			if trans == NoTrans {
				Dgemm(NoTrans, Trans, jb, nb, k, alpha, a, lda, a[jb:], lda, 1, c[jb*ldc:], ldc)
			} else {
				Dgemm(Trans, NoTrans, jb, nb, k, alpha, a, lda, a[jb*lda:], lda, 1, c[jb*ldc:], ldc)
			}
		}
	}
}

// syrkRef is the scalar triangle update (the pre-rework Dsyrk body), used
// for small problems and diagonal blocks.
func syrkRef(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, c []float64, ldc int) {
	if trans == NoTrans {
		// Stream columns: C[:,j] += alpha·A[j,l]·A[:,l] per l.
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == Lower {
				lo, hi = j, n
			}
			ccol := c[j*ldc:]
			for l := 0; l < k; l++ {
				t := alpha * a[j+l*lda]
				if t == 0 {
					continue
				}
				acol := a[l*lda:]
				for i := lo; i < hi; i++ {
					ccol[i] += t * acol[i]
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += a[l+i*lda] * a[l+j*lda]
			}
			c[i+j*ldc] += alpha * sum
		}
	}
}

// Dsyr2k computes C := alpha*(op(A)*op(B)ᵀ + op(B)*op(A)ᵀ) + beta*C updating
// only the triangle of C selected by uplo. op(A) and op(B) are n×k.
func Dsyr2k(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	rowA, colA := n, k
	if trans == Trans {
		rowA, colA = k, n
	}
	checkMatrix("dsyr2k", rowA, colA, a, lda)
	checkMatrix("dsyr2k", rowA, colA, b, ldb)
	checkMatrix("dsyr2k", n, n, c, ldc)
	if n == 0 {
		return
	}
	scaleTriangle(uplo, n, beta, c, ldc)
	if alpha == 0 || k == 0 {
		return
	}
	if n <= routeBlock {
		syr2kRef(uplo, trans, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	for jb := 0; jb < n; jb += routeBlock {
		nb := min(routeBlock, n-jb)
		if trans == NoTrans {
			syr2kRef(uplo, trans, nb, k, alpha, a[jb:], lda, b[jb:], ldb, c[jb+jb*ldc:], ldc)
		} else {
			syr2kRef(uplo, trans, nb, k, alpha, a[jb*lda:], lda, b[jb*ldb:], ldb, c[jb+jb*ldc:], ldc)
		}
		if uplo == Lower && jb+nb < n {
			rows := n - jb - nb
			cblk := c[jb+nb+jb*ldc:]
			if trans == NoTrans {
				Dgemm(NoTrans, Trans, rows, nb, k, alpha, a[jb+nb:], lda, b[jb:], ldb, 1, cblk, ldc)
				Dgemm(NoTrans, Trans, rows, nb, k, alpha, b[jb+nb:], ldb, a[jb:], lda, 1, cblk, ldc)
			} else {
				Dgemm(Trans, NoTrans, rows, nb, k, alpha, a[(jb+nb)*lda:], lda, b[jb*ldb:], ldb, 1, cblk, ldc)
				Dgemm(Trans, NoTrans, rows, nb, k, alpha, b[(jb+nb)*ldb:], ldb, a[jb*lda:], lda, 1, cblk, ldc)
			}
		} else if uplo == Upper && jb > 0 {
			cblk := c[jb*ldc:]
			if trans == NoTrans {
				Dgemm(NoTrans, Trans, jb, nb, k, alpha, a, lda, b[jb:], ldb, 1, cblk, ldc)
				Dgemm(NoTrans, Trans, jb, nb, k, alpha, b, ldb, a[jb:], lda, 1, cblk, ldc)
			} else {
				Dgemm(Trans, NoTrans, jb, nb, k, alpha, a, lda, b[jb*ldb:], ldb, 1, cblk, ldc)
				Dgemm(Trans, NoTrans, jb, nb, k, alpha, b, ldb, a[jb*lda:], lda, 1, cblk, ldc)
			}
		}
	}
}

// syr2kRef is the scalar rank-2k triangle update (the pre-rework Dsyr2k
// body), used for small problems and diagonal blocks.
func syr2kRef(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if trans == NoTrans {
		// Stream columns: C[:,j] += alpha·(B[j,l]·A[:,l] + A[j,l]·B[:,l]).
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == Lower {
				lo, hi = j, n
			}
			ccol := c[j*ldc:]
			for l := 0; l < k; l++ {
				ta := alpha * b[j+l*ldb]
				tb := alpha * a[j+l*lda]
				acol := a[l*lda:]
				bcol := b[l*ldb:]
				for i := lo; i < hi; i++ {
					ccol[i] += ta*acol[i] + tb*bcol[i]
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += a[l+i*lda]*b[l+j*ldb] + b[l+i*ldb]*a[l+j*lda]
			}
			c[i+j*ldc] += alpha * sum
		}
	}
}

func scaleTriangle(uplo Uplo, n int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		col := c[j*ldc:]
		for i := lo; i < hi; i++ {
			if beta == 0 {
				col[i] = 0
			} else {
				col[i] *= beta
			}
		}
	}
}

// Dtrsm solves op(A)*X = alpha*B (side Left) or X*op(A) = alpha*B (side
// Right) for X, overwriting B. A is triangular.
//
// Large triangles are split recursively so the off-diagonal
// half of the work runs as a rectangular Dgemm update; only diagonal blocks
// of at most trsmBase run the scalar substitution loops.
func Dtrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("dtrsm", na, na, a, lda)
	checkMatrix("dtrsm", m, n, b, ldb)
	if m == 0 || n == 0 {
		return
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			for i := range col {
				col[i] *= alpha
			}
		}
	}
	trsmRec(side, uplo, trans, diag, m, n, a, lda, b, ldb)
}

// trsmBase is the largest triangle solved by direct substitution; above it
// the solve splits and the coupling block goes through Dgemm.
const trsmBase = 24

// trsmRec solves op(A)*X = B or X*op(A) = B in place (alpha already
// applied).
func trsmRec(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if na <= 2*trsmBase {
		trsmBaseCase(side, uplo, trans, diag, m, n, a, lda, b, ldb)
		return
	}
	h := na / 2
	a11 := a
	a22 := a[h+h*lda:]
	// lower reports whether the effective operator op(A) is lower
	// triangular (forward substitution order).
	lower := (uplo == Lower && trans == NoTrans) || (uplo == Upper && trans == Trans)
	if side == Left {
		b1 := b
		b2 := b[h:]
		if lower {
			// [L11 0; L21 L22]·[X1; X2] = [B1; B2]:
			// X1 first, eliminate the coupling, then X2.
			trsmRec(side, uplo, trans, diag, h, n, a11, lda, b1, ldb)
			if uplo == Lower {
				Dgemm(NoTrans, NoTrans, m-h, n, h, -1, a[h:], lda, b1, ldb, 1, b2, ldb)
			} else { // Upper, Trans: L21 = A12ᵀ
				Dgemm(Trans, NoTrans, m-h, n, h, -1, a[h*lda:], lda, b1, ldb, 1, b2, ldb)
			}
			trsmRec(side, uplo, trans, diag, m-h, n, a22, lda, b2, ldb)
			return
		}
		// [U11 U12; 0 U22]: X2 first (backward substitution).
		trsmRec(side, uplo, trans, diag, m-h, n, a22, lda, b2, ldb)
		if uplo == Upper {
			Dgemm(NoTrans, NoTrans, h, n, m-h, -1, a[h*lda:], lda, b2, ldb, 1, b1, ldb)
		} else { // Lower, Trans: U12 = A21ᵀ
			Dgemm(Trans, NoTrans, h, n, m-h, -1, a[h:], lda, b2, ldb, 1, b1, ldb)
		}
		trsmRec(side, uplo, trans, diag, h, n, a11, lda, b1, ldb)
		return
	}
	// side == Right: [X1 X2]·op(A) = [B1 B2] over column blocks of B.
	b1 := b
	b2 := b[h*ldb:]
	if lower {
		// op(A) = [L11 0; L21 L22]: X2·L22 = B2 first, then
		// X1·L11 = B1 - X2·L21.
		trsmRec(side, uplo, trans, diag, m, n-h, a22, lda, b2, ldb)
		if uplo == Lower {
			Dgemm(NoTrans, NoTrans, m, h, n-h, -1, b2, ldb, a[h:], lda, 1, b1, ldb)
		} else { // Upper, Trans: L21 = A12ᵀ
			Dgemm(NoTrans, Trans, m, h, n-h, -1, b2, ldb, a[h*lda:], lda, 1, b1, ldb)
		}
		trsmRec(side, uplo, trans, diag, m, h, a11, lda, b1, ldb)
		return
	}
	// op(A) = [U11 U12; 0 U22]: X1·U11 = B1 first, then
	// X2·U22 = B2 - X1·U12.
	trsmRec(side, uplo, trans, diag, m, h, a11, lda, b1, ldb)
	if uplo == Upper {
		Dgemm(NoTrans, NoTrans, m, n-h, h, -1, b1, ldb, a[h*lda:], lda, 1, b2, ldb)
	} else { // Lower, Trans: U12 = A21ᵀ
		Dgemm(NoTrans, Trans, m, n-h, h, -1, b1, ldb, a[h:], lda, 1, b2, ldb)
	}
	trsmRec(side, uplo, trans, diag, m, n-h, a22, lda, b2, ldb)
}

// trsmBaseCase solves the triangle by direct substitution (the pre-rework
// Dtrsm body with alpha pre-applied).
func trsmBaseCase(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	unit := diag == Unit
	aval := func(i, j int) float64 {
		if trans == Trans {
			i, j = j, i
		}
		if (uplo == Upper && i > j) || (uplo == Lower && i < j) {
			return 0
		}
		return a[i+j*lda]
	}
	if side == Left {
		// Solve op(A) X = B column by column via substitution. Effective
		// matrix op(A) is lower when (Lower,NoTrans) or (Upper,Trans).
		lower := (uplo == Lower && trans == NoTrans) || (uplo == Upper && trans == Trans)
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			if lower {
				for i := 0; i < m; i++ {
					s := col[i]
					for l := 0; l < i; l++ {
						s -= aval(i, l) * col[l]
					}
					if !unit {
						s /= aval(i, i)
					}
					col[i] = s
				}
			} else {
				for i := m - 1; i >= 0; i-- {
					s := col[i]
					for l := i + 1; l < m; l++ {
						s -= aval(i, l) * col[l]
					}
					if !unit {
						s /= aval(i, i)
					}
					col[i] = s
				}
			}
		}
		return
	}
	// side == Right: X op(A) = B, i.e. column j of X satisfies
	// sum_l X[:,l] opA[l,j] = B[:,j]. Effective op(A) lower triangular means
	// X[:,j] depends on X[:,l] for l>j → iterate j descending; upper means
	// ascending.
	lower := (uplo == Lower && trans == NoTrans) || (uplo == Upper && trans == Trans)
	if lower {
		for j := n - 1; j >= 0; j-- {
			dst := b[j*ldb : j*ldb+m]
			for l := j + 1; l < n; l++ {
				t := aval(l, j)
				if t != 0 {
					src := b[l*ldb : l*ldb+m]
					for i := range dst {
						dst[i] -= t * src[i]
					}
				}
			}
			if !unit {
				d := aval(j, j)
				for i := range dst {
					dst[i] /= d
				}
			}
		}
	} else {
		for j := 0; j < n; j++ {
			dst := b[j*ldb : j*ldb+m]
			for l := 0; l < j; l++ {
				t := aval(l, j)
				if t != 0 {
					src := b[l*ldb : l*ldb+m]
					for i := range dst {
						dst[i] -= t * src[i]
					}
				}
			}
			if !unit {
				d := aval(j, j)
				for i := range dst {
					dst[i] /= d
				}
			}
		}
	}
}

// Dsymm computes C := alpha*A*B + beta*C (side Left) or
// C := alpha*B*A + beta*C (side Right) where A is symmetric with only the
// uplo triangle referenced and C is m×n.
func Dsymm(side Side, uplo Uplo, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("dsymm", na, na, a, lda)
	checkMatrix("dsymm", m, n, b, ldb)
	checkMatrix("dsymm", m, n, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else if beta != 1 {
			for i := range col {
				col[i] *= beta
			}
		}
	}
	if alpha == 0 {
		return
	}
	if na > routeBlock {
		symmBlocked(side, uplo, m, n, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	symmRef(side, uplo, m, n, alpha, a, lda, b, ldb, c, ldc)
}

// symmBlocked decomposes the symmetric operand into routeBlock×routeBlock
// blocks: stored off-diagonal blocks multiply through Dgemm directly (or
// transposed, for the unstored triangle), and diagonal blocks are expanded
// symmetrically into a stack tile first, so all bulk work runs on the
// packed kernels.
func symmBlocked(side Side, uplo Uplo, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	var diag [routeBlock * routeBlock]float64
	na := m
	if side == Right {
		na = n
	}
	for ib := 0; ib < na; ib += routeBlock {
		bi := min(routeBlock, na-ib)
		for lb := 0; lb < na; lb += routeBlock {
			bl := min(routeBlock, na-lb)
			// Find the stored form of block A[ib:ib+bi, lb:lb+bl].
			var blk []float64
			ldblk := lda
			tr := NoTrans
			switch {
			case ib == lb:
				// Diagonal block: expand the stored triangle.
				for j := 0; j < bl; j++ {
					for i := 0; i < bi; i++ {
						diag[i+j*routeBlock] = symAt(uplo, a, lda, ib+i, lb+j)
					}
				}
				blk = diag[:]
				ldblk = routeBlock
			case (uplo == Lower && ib > lb) || (uplo == Upper && ib < lb):
				blk = a[ib+lb*lda:]
			default:
				// Unstored triangle: use the transpose of the mirror block.
				blk = a[lb+ib*lda:]
				tr = Trans
			}
			if side == Left {
				// C[ib:, :] += alpha · A(ib,lb) · B[lb:, :].
				Dgemm(tr, NoTrans, bi, n, bl, alpha, blk, ldblk, b[lb:], ldb, 1, c[ib:], ldc)
			} else {
				// C[:, ib:] += alpha · B[:, lb:] · A(lb,ib).
				// A(lb,ib) is the transpose of the block we looked up.
				opp := Trans
				if tr == Trans {
					opp = NoTrans
				}
				Dgemm(NoTrans, opp, m, bi, bl, alpha, b[lb*ldb:], ldb, blk, ldblk, 1, c[ib*ldc:], ldc)
			}
		}
	}
}

// symmRef is the scalar reference (the pre-rework Dsymm body), used for
// small operands.
func symmRef(side Side, uplo Uplo, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if side == Left {
		for j := 0; j < n; j++ {
			bcol := b[j*ldb : j*ldb+m]
			ccol := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				var sum float64
				for l := 0; l < m; l++ {
					sum += symAt(uplo, a, lda, i, l) * bcol[l]
				}
				ccol[i] += alpha * sum
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		ccol := c[j*ldc : j*ldc+m]
		for l := 0; l < n; l++ {
			t := alpha * symAt(uplo, a, lda, l, j)
			if t != 0 {
				bcol := b[l*ldb : l*ldb+m]
				for i := range ccol {
					ccol[i] += t * bcol[i]
				}
			}
		}
	}
}
