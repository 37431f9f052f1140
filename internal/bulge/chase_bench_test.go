package bulge

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/work"
)

// BenchmarkChase times the whole stage-2 reduction of a random band of the
// solver's default width (b = 48), values only and keeping Q₂, on a recycled
// arena as inside a Solver: at the small sizes of the benchmark's batch
// items and at the large sizes of its single-solve workloads.
func BenchmarkChase(b *testing.B) {
	const bw = 48
	for _, n := range []int{128, 256, 1024, 1536} {
		band := randBand(rand.New(rand.NewSource(7)), n, bw)
		for _, wantQ := range []bool{false, true} {
			kind := "values"
			if wantQ {
				kind = "vectors"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, kind), func(b *testing.B) {
				ws := work.NewArena()
				for i := 0; i < b.N; i++ {
					Chase(band, nil, wantQ, ws, nil)
				}
			})
		}
	}
}
