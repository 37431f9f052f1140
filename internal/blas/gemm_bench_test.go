package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGemm measures C += A·B at n×n×n on the kernels in use.
func benchGemm(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		bm[i] = rng.Float64()
	}
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
}

func BenchmarkDgemm(b *testing.B) {
	for _, n := range []int{128, 512} {
		forEachPath(func(path string) {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) { benchGemm(b, n) })
		})
	}
}

// BenchmarkGemmKernels reports each kernel family's Gflop/s on the products
// the solver runs through GemmPackedA: a 48×48·48 TSMQR tile of stage 1 and
// Q₁, the two products of a Q₂ diamond of a bandwidth-48 chase on a
// 16-column slab of a 1024-row eigenvector block — Vᵀ·C then V·W, 16×63 by
// 63×16 and 63×16 by 16×16 at the default width g = 16, 12×59 and 59×12 at
// g = 12 — and a D&C merge's 512×512 by 512×64 eigenvector tile.
func BenchmarkGemmKernels(b *testing.B) {
	for _, s := range []struct {
		name              string
		m, n, k, ldb, ldc int
	}{
		{"tsmqr48", 48, 48, 48, 48, 48},
		{"q2_vt16x63", 16, 16, 63, 1024, 16}, // W = Vᵀ·C: C is a slab of E
		{"q2_v63x16", 63, 16, 16, 16, 1024},  // E += V·W
		{"q2_vt12x59", 12, 16, 59, 1024, 12},
		{"q2_v59x12", 59, 16, 12, 12, 1024},
		{"dc_merge512", 512, 64, 512, 512, 512},
	} {
		forEachPath(func(path string) {
			b.Run(s.name+"/"+path, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				a := randMat(rng, s.m, s.k, s.m)
				bm := randMat(rng, s.k, s.n, s.ldb)
				c := randMat(rng, s.m, s.n, s.ldc)
				pk := CurrentPacking()
				ap := make([]float64, pk.ALen(s.m, s.k))
				pk.PackA(ap, NoTrans, a, s.m, s.m, s.k)
				scratch := make([]float64, pk.BScratch(s.k, s.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pk.GemmPackedA(s.m, s.n, s.k, ap, bm, s.ldb, c, s.ldc, scratch)
				}
				b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
			})
		})
	}
}
