package blas

import (
	"math/rand"
	"testing"
)

// gemmOnce runs one Dgemm over fresh copies of the inputs and returns C.
func gemmOnce(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) []float64 {
	cc := append([]float64(nil), c...)
	Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, cc, ldc)
	return cc
}

// TestDgemmFringeAgainstNaive exercises every ragged edge of the blocked
// driver: dimensions around the register tile (1..9) and around each cache
// block boundary, padded leading dimensions, special-cased alpha/beta, and
// all transpose combinations, for every kernel.
func TestDgemmFringeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 2, 3, 5, 7, 9, 11, 12, 13}
	for _, edge := range []int{DefaultMC, DefaultKC, DefaultNC} {
		dims = append(dims, edge-1, edge+1)
	}
	cases := 0
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				if m*n*k > 1<<21 { // keep the large-edge combinations affordable
					continue
				}
				// Deterministic subsample of the parameter grid to bound runtime.
				if cases++; cases%7 != 0 && m > 13 && n > 13 {
					continue
				}
				lda, ldb, ldc := m+3, k+2, m+1
				transA, transB := NoTrans, NoTrans
				switch cases % 4 {
				case 1:
					transA = Trans
					lda = k + 3
				case 2:
					transB = Trans
					ldb = n + 2
				case 3:
					transA, transB = Trans, Trans
					lda, ldb = k+3, n+2
				}
				ra, ca := m, k
				if transA == Trans {
					ra, ca = k, m
				}
				rb, cb := k, n
				if transB == Trans {
					rb, cb = n, k
				}
				a := randMat(rng, ra, ca, lda)
				b := randMat(rng, rb, cb, ldb)
				c := randMat(rng, m, n, ldc)
				alpha := []float64{0, 1, -1, 0.5}[cases%4]
				beta := []float64{0, 1, 2}[cases%3]
				want := append([]float64(nil), c...)
				naiveGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
				forEachPath(func(path string) {
					got := gemmOnce(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
					if d := maxDiff(got, want); d > 1e-10*float64(k+1) {
						t.Fatalf("%s kernel m=%d n=%d k=%d tA=%c tB=%c alpha=%g beta=%g: max diff %g",
							path, m, n, k, transA, transB, alpha, beta, d)
					}
				})
			}
		}
	}
}

// TestDgemmKernelsBitwiseIdentical checks the central determinism contract:
// every kernel family this CPU runs — the probe's and each older one —
// produces output bitwise identical to the portable 2×4 tile, on block-sized
// shapes and on the fringe shapes that hit the assembly layouts' padded last
// panels and ragged tiles.
func TestDgemmKernelsBitwiseIdentical(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(11))
	type shape struct{ m, n, k int }
	shapes := []shape{
		{300, 300, 300},
		{129, 65, 257},
		{7, 513, 128},
		{256, 4, 256},
	}
	for _, m := range []int{1, 7, 9, 12, 13, 16, 17, 59} {
		for _, n := range []int{1, 3, 5, 16, 37} {
			shapes = append(shapes, shape{m, n, 12}, shape{m, n, 131})
		}
	}
	for _, s := range shapes {
		a := randMat(rng, s.m, s.k, s.m)
		b := randMat(rng, s.k, s.n, s.k)
		c := randMat(rng, s.m, s.n, s.m)
		var ref []float64
		portable(func() {
			ref = gemmOnce(NoTrans, NoTrans, s.m, s.n, s.k, 1.25, a, s.m, b, s.k, 0.5, c, s.m)
		})
		forEachPath(func(path string) {
			got := gemmOnce(NoTrans, NoTrans, s.m, s.n, s.k, 1.25, a, s.m, b, s.k, 0.5, c, s.m)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s kernel, shape %v: element %d = %x, portable 2×4 = %x (not bitwise identical)",
						path, s, i, got[i], ref[i])
				}
			}
		})
	}
}

// TestDgemmBlockingInvariance checks that MC and NC are numerically
// neutral: a product whose C crosses both an MC and an NC boundary (and whose
// chains cross KC boundaries) is bitwise the same as its row strips and column
// panels computed as separate products, none of which any MC or NC boundary
// cuts — on every kernel.
func TestDgemmBlockingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n, k = DefaultMC + 36, DefaultNC + 8, 300
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	forEachPath(func(path string) {
		whole := gemmOnce(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 1, c, m)
		parts := append([]float64(nil), c...)
		rows, cols := []int{0, 150, m}, []int{0, 257, n} // strip and panel edges
		for r := 0; r < 2; r++ {
			for q := 0; q < 2; q++ {
				i0, j0 := rows[r], cols[q]
				Dgemm(NoTrans, NoTrans, rows[r+1]-i0, cols[q+1]-j0, k, 1, a[i0:], m, b[j0*k:], k, 1, parts[i0+j0*m:], m)
			}
		}
		for i := range whole {
			if whole[i] != parts[i] {
				t.Fatalf("%s kernel: element %d of the whole product differs from the split one (%x vs %x)",
					path, i, whole[i], parts[i])
			}
		}
	})
}

// TestLevel3RoutingAgainstRef checks the blocked Dsyr2k path (sizes above
// routeBlock, so off-diagonal work routes through Dgemm) against its
// diagonal-block form, k rank-2 updates on syr2L, run over the whole matrix.
func TestLevel3RoutingAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, k := routeBlock*2+7, 83
	t.Run("syr2k_LN", func(t *testing.T) {
		a := randMat(rng, n, k, n)
		b := randMat(rng, n, k, n)
		c := randMat(rng, n, n, n)
		got := append([]float64(nil), c...)
		Dsyr2k(Lower, NoTrans, n, k, -0.5, a, n, b, n, 1, got, n)
		want := append([]float64(nil), c...)
		for l := 0; l < k; l++ {
			syr2L(n, -0.5, a[l*n:], b[l*n:], want, n)
		}
		if d := maxDiff(got, want); d > 1e-11*float64(k) {
			t.Fatalf("Dsyr2k routed path differs from reference: %g", d)
		}
	})
}
