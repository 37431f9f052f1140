package blas

// Dsyr2k is a thin block decomposition over Dgemm: only small diagonal
// blocks run scalar loops; all O(n²·k) bulk work goes through the packed
// register-blocked GEMM kernels. The block size is a compile-time constant, so
// the decomposition — and therefore the floating-point result — never
// depends on which kernels run.

// routeBlock is the diagonal-block edge of the Dsyr2k decomposition:
// matrices at or below this order run the reference scalar loops outright.
const routeBlock = 64

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

// syr2kRef is the rank-2k triangle update of small problems and diagonal
// blocks. Lower/NoTrans — onestage.Sytrd's trailing update, the only one the
// solvers make — is k rank-2 updates on the syr2L kernel: element (i, j) gets
// the same two products per l, in the same ascending l order, as the scalar
// loops below, which the other three cases keep.
func syr2kRef(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if uplo == Lower && trans == NoTrans {
		for l := 0; l < k; l++ {
			syr2L(n, alpha, a[l*lda:], b[l*ldb:], c, ldc)
		}
		return
	}
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
