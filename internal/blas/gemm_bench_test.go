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
