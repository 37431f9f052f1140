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
	Dsyr2kCols(uplo, trans, n, k, 0, n, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Dsyr2kCols is Dsyr2k on the columns [j0, j1) of C alone, with the bits
// Dsyr2k gives them: the decomposition's block columns write disjoint parts
// of C, so disjoint column ranges may run on separate goroutines. j0 and j1
// must be block boundaries (Dsyr2kHalf returns one), j1 = n counting as one.
func Dsyr2kCols(uplo Uplo, trans Transpose, n, k, j0, j1 int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
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
	boundary := func(j int) bool { return j%routeBlock == 0 || j == n }
	if j0 < 0 || j0 > j1 || j1 > n || !boundary(j0) || !boundary(j1) {
		panic(badParam("dsyr2k", "columns (a range between block boundaries)"))
	}
	if alpha == 0 || k == 0 {
		return
	}
	for jb := j0; jb < j1; jb += routeBlock {
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

// Dsyr2kHalf returns the block boundary s that splits the flops of a
// Dsyr2k of order n most evenly between Dsyr2kCols on [0, s) and on [s, n):
// a block column goes to the first range when at least half of its cost lies
// before the halfway mark of the total.
func Dsyr2kHalf(n int) int {
	cost := func(jb int) int { // block column jb, in units of 2k flops
		nb := min(routeBlock, n-jb)
		return nb * (nb + 1 + 2*(n-jb-nb))
	}
	total := 0
	for jb := 0; jb < n; jb += routeBlock {
		total += cost(jb)
	}
	s, sum := 0, 0
	for ; s < n && 2*sum+cost(s) <= total; s += routeBlock {
		sum += cost(s)
	}
	return min(s, n)
}
