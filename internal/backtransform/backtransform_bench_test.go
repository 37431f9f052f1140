package backtransform

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/band"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/work"
)

// BenchmarkBacktransform times the back-transformation of an n = 1024
// reduction (stage-1 tile size 48) on the kernels the CPU probe chose, the
// eigenvector matrix E being n×n:
//
//   - plan: NewPlan, the Q₂ diamonds aggregated and packed;
//   - q2/g=g: Q₂ alone at diamond width g (16 is the default), E swept in the
//     one-worker column blocks of the fused pass;
//   - q1: Q₁ alone, likewise;
//   - fused/g=g/W=w: the fused pass (ApplyFused) at width g on w workers.
//
// Gflop/s is nominal, as the solver's trace counts it: 4·rows·k per column
// of E and reflector block, the zeros of a diamond's aggregated V included,
// so a wider g reports more flops for the same reflectors; compare widths by
// ns/op.
func BenchmarkBacktransform(b *testing.B) {
	const n, nb = 1024, 48
	rng := rand.New(rand.NewSource(1))
	f := band.Reduce(testmat.RandomSym(rng, n), band.Config{NB: nb}, nil, nil, nil)
	res := bulge.Chase(f.Band, nil, true, nil, nil)
	e := matrix.NewDense(n, n)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	cb := defaultColBlock(n, nb, 1)
	gflops := func(b *testing.B, perCol int64) {
		b.ReportMetric(float64(perCol)*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
	}
	// onJobs runs f b.N times, each on a fresh job of a w-worker scheduler
	// (a nil job for w = 1).
	onJobs := func(b *testing.B, w int, f func(job *sched.Job)) {
		var s *sched.Scheduler
		if w > 1 {
			s = sched.New(w)
			defer s.Shutdown()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var job *sched.Job
			if s != nil {
				job = s.NewJob(nil)
			}
			f(job)
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plan", func(b *testing.B) {
		ws := work.NewArena()
		for i := 0; i < b.N; i++ {
			NewPlan(res, 0, ws)
		}
	})
	for _, g := range []int{12, 16, 24, 48} {
		b.Run(fmt.Sprintf("q2/g=%d", g), func(b *testing.B) {
			p := NewPlan(res, g, work.NewArena())
			wk := make([]float64, p.Work())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j0 := 0; j0 < n; j0 += cb {
					p.ApplyBlock(e.View(0, j0, n, min(cb, n-j0)), wk, nil)
				}
			}
			gflops(b, p.FlopsPerCol())
		})
	}
	b.Run("q1", func(b *testing.B) {
		wk := make([]float64, f.Q1Work())
		for i := 0; i < b.N; i++ {
			for j0 := 0; j0 < n; j0 += cb {
				f.ApplyQ1Block(e.View(0, j0, n, min(cb, n-j0)), wk, nil)
			}
		}
		gflops(b, f.Q1FlopsPerCol())
	})
	for _, g := range []int{12, 16, 24, 48} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("fused/g=%d/W=%d", g, w), func(b *testing.B) {
				p := NewPlan(res, g, work.NewArena())
				onJobs(b, w, func(job *sched.Job) { p.ApplyFused(f, e, job, 0, nil) })
				gflops(b, p.FlopsPerCol()+f.Q1FlopsPerCol())
			})
		}
	}
}
