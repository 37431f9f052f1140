package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGemm measures C += A·B at n×n×n for a fixed kernel selection.
func benchGemm(b *testing.B, n int, kern Kernel) {
	prev := SetBlocking(Blocking{Kernel: kern})
	defer SetBlocking(prev)
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
	kernels := []Kernel{Kernel2x4, KernelAuto}
	for _, n := range []int{128, 512} {
		for _, k := range kernels {
			b.Run(fmt.Sprintf("n=%d/%v", n, k), func(b *testing.B) { benchGemm(b, n, k) })
		}
	}
}
