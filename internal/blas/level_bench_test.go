package blas

import (
	"math/rand"
	"testing"
)

// BenchmarkLevel2 times the Level-2 routines at the shapes their three hot
// callers use: the bulge chase (48×48 blocks of band storage, leading
// dimension 2b−1 = 95), band.Tsqrt (a 48-row reflector against half a tile of
// trailing columns) and onestage's latrd (the order-1024 trailing matrix and
// its 16-column panels).
func BenchmarkLevel2(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	gemv := func(trans Transpose, m, n, lda int) func(*testing.B) {
		return func(b *testing.B) {
			a := randMat(rng, m, n, lda)
			x, y := randVec(rng, max(m, n)), randVec(rng, max(m, n))
			for i := 0; i < b.N; i++ {
				Dgemv(trans, m, n, 1, a, lda, x, 1, 0, y, 1)
			}
			b.ReportMetric(2*float64(m)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		}
	}
	ger := func(m, n, lda int) func(*testing.B) {
		return func(b *testing.B) {
			a := randMat(rng, m, n, lda)
			x, y := randVec(rng, m), randVec(rng, n)
			for i := 0; i < b.N; i++ {
				Dger(m, n, 1e-9, x, 1, y, 1, a, lda)
			}
			b.ReportMetric(2*float64(m)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		}
	}
	sym := func(syr2 bool, n, lda int) func(*testing.B) {
		return func(b *testing.B) {
			a := randMat(rng, n, n, lda)
			x, y := randVec(rng, n), randVec(rng, n)
			for i := 0; i < b.N; i++ {
				if syr2 {
					Dsyr2(Lower, n, 1e-9, x, 1, y, 1, a, lda)
				} else {
					Dsymv(Lower, n, 1, a, lda, x, 1, 0, y, 1)
				}
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		}
	}
	b.Run("chase/gemvN48x48", gemv(NoTrans, 48, 48, 95))
	b.Run("chase/gemvT48x47", gemv(Trans, 48, 47, 95))
	b.Run("chase/ger48x48", ger(48, 48, 95))
	b.Run("chase/symv48", sym(false, 48, 95))
	b.Run("chase/syr2-48", sym(true, 48, 95))
	b.Run("tsqrt/gemvT48x24", gemv(Trans, 48, 24, 48))
	b.Run("tsqrt/ger48x24", ger(48, 24, 48))
	b.Run("latrd/symv1024", sym(false, 1024, 1024))
	b.Run("latrd/gemvN1000x16", gemv(NoTrans, 1000, 16, 1024))
	b.Run("latrd/gemvT1000x16", gemv(Trans, 1000, 16, 1024))
}
