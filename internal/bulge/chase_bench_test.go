package bulge

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/work"
)

// BenchmarkChase times the whole stage-2 reduction of a random band of the
// solver's default width (b = 48) at the sizes the benchmark's workloads run,
// sequentially and as scheduled tasks on two workers, values only, on a
// recycled arena as inside a Solver.
func BenchmarkChase(b *testing.B) {
	const bw = 48
	for _, n := range []int{1024, 1536} {
		band := randBand(rand.New(rand.NewSource(7)), n, bw)
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("n=%d/seq", n)
			if workers > 1 {
				name = fmt.Sprintf("n=%d/W=%d", n, workers)
			}
			b.Run(name, func(b *testing.B) {
				var s *sched.Scheduler
				if workers > 1 {
					s = sched.New(workers)
					defer s.Shutdown()
				}
				ws := work.NewArena()
				for i := 0; i < b.N; i++ {
					var job *sched.Job
					if s != nil {
						job = s.NewJob(nil)
					}
					Chase(band, job, 0, false, ws, nil)
				}
			})
		}
	}
}
