package blas

// Dsyr2k is a thin block decomposition over Dgemm: only small diagonal
// blocks run on the syr2L kernel; all O(n²·k) bulk work goes through the
// packed register-blocked GEMM kernels. The block size is a compile-time
// constant, so the decomposition — and therefore the floating-point result —
// never depends on which kernels run.

// routeBlock is the diagonal-block edge of the Dsyr2k decomposition:
// matrices at or below this order are one diagonal block.
const routeBlock = 64

// Dsyr2k computes C := alpha*(A*Bᵀ + B*Aᵀ) + C on the lower triangle of the
// n×n matrix C, for n×k matrices A and B: onestage.Sytrd's trailing update.
// Only that shape is implemented: uplo must be Lower, trans NoTrans and beta 1.
//
// Each diagonal block is k rank-2 updates on the syr2L kernel, so element
// (i, j) gets its two products per l in ascending l order; the blocks below
// it are two Dgemm calls.
func Dsyr2k(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkMatrix("dsyr2k", n, k, a, lda)
	checkMatrix("dsyr2k", n, k, b, ldb)
	checkMatrix("dsyr2k", n, n, c, ldc)
	if uplo != Lower {
		panic(badParam("dsyr2k", "uplo (only Lower supported)"))
	}
	if trans != NoTrans {
		panic(badParam("dsyr2k", "transpose (only NoTrans supported)"))
	}
	if beta != 1 {
		panic(badParam("dsyr2k", "beta (only 1 supported)"))
	}
	if n == 0 || alpha == 0 || k == 0 {
		return
	}
	for jb := 0; jb < n; jb += routeBlock {
		nb := min(routeBlock, n-jb)
		for l := 0; l < k; l++ {
			syr2L(nb, alpha, a[jb+l*lda:], b[jb+l*ldb:], c[jb+jb*ldc:], ldc)
		}
		if rows := n - jb - nb; rows > 0 {
			cblk := c[jb+nb+jb*ldc:]
			Dgemm(NoTrans, Trans, rows, nb, k, alpha, a[jb+nb:], lda, b[jb:], ldb, 1, cblk, ldc)
			Dgemm(NoTrans, Trans, rows, nb, k, alpha, b[jb+nb:], ldb, a[jb:], lda, 1, cblk, ldc)
		}
	}
}
