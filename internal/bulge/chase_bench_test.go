package bulge

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/work"
)

// BenchmarkChase times the whole stage-2 reduction of a random band of the
// solver's default width (b = 48), values only and keeping Q₂, on a recycled
// arena as inside a Solver: at the small sizes of the benchmark's batch
// items, around N₂ and at the large sizes of its single-solve workloads. Each
// size runs as one stream and as two on a W = 2 scheduler whatever N₂ is, so
// the pair of rows at each n is what N₂ is chosen from.
func BenchmarkChase(b *testing.B) {
	const bw = 48
	s := sched.New(2)
	defer s.Shutdown()
	for _, n := range []int{128, 256, 512, 768, 1024, 1536, 2048} {
		band := randBand(rand.New(rand.NewSource(7)), n, bw)
		for _, wantQ := range []bool{false, true} {
			kind := "values"
			if wantQ {
				kind = "vectors"
			}
			for _, streams := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/%s/streams=%d", n, kind, streams), func(b *testing.B) {
					ws := work.NewArena()
					for i := 0; i < b.N; i++ {
						if streams == 1 {
							chase(band, nil, wantQ, ws, nil, false)
							continue
						}
						job := s.NewJob(nil)
						chase(band, job, wantQ, ws, nil, true)
						job.Wait()
					}
				})
			}
		}
	}
}
