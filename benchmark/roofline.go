package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/band"
	"repro/internal/blas"
)

// roofline holds the machine rates measured in the same run as the layers
// they bound: α (compute-bound Dgemm), the rate at the stage-1 tile size,
// and β (Dsymv streaming from memory), each on one thread, in Gflop/s.
type roofline struct {
	alpha, tile, beta float64
	gemmN, tileN      int
	symvN             int
	symvBytes, llc    int64
}

const rooflineReps = 7

// timeMedian returns the median seconds of reps calls of fn after one
// untimed call.
func timeMedian(reps int, fn func()) float64 {
	fn()
	secs := make([]float64, reps)
	for i := range secs {
		start := time.Now()
		fn()
		secs[i] = time.Since(start).Seconds()
	}
	return median(secs)
}

func filled(n int, mod int, step float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%mod) * step
	}
	return v
}

// measureRoofline calls blas.Dgemm and blas.Dsymv directly. The Dsymv
// matrix is at least four times the last-level cache (capped at sc.symvCapB),
// so β is the DRAM rate and not a cache rate; both sizes are recorded.
func measureRoofline(sc scale, rec *recorder) roofline {
	r := roofline{gemmN: sc.gemmN, tileN: max(4, band.DefaultNB/sc.div), llc: llcBytes()}
	sp := rec.begin("blas.roofline", -1, -1)
	defer rec.end(sp)

	dgemm := func(n, calls int) float64 {
		a, b, c := filled(n*n, 7, 0.25), filled(n*n, 5, 0.5), make([]float64, n*n)
		s := timeMedian(rooflineReps, func() {
			for i := 0; i < calls; i++ {
				blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}
		})
		return 2 * float64(calls) * math.Pow(float64(n), 3) / s / 1e9
	}
	rec.in("blas.dgemm", sp, -1, func() { r.alpha = dgemm(r.gemmN, 1) })
	// One tile product is tens of microseconds; time enough of them to
	// match the big product's work.
	calls := max(1, int(math.Pow(float64(r.gemmN)/float64(r.tileN), 3)))
	rec.in("blas.dgemm_tile", sp, -1, func() { r.tile = dgemm(r.tileN, calls) })

	want := 4 * r.llc
	if want == 0 {
		want = 256 << 20
	}
	want = min(want, sc.symvCapB)
	r.symvN = int(math.Sqrt(float64(want / 8)))
	r.symvBytes = 8 * int64(r.symvN) * int64(r.symvN)
	rec.in("blas.dsymv", sp, -1, func() {
		n := r.symvN
		a, x, y := filled(n*n, 9, 0.125), filled(n, 3, 1), make([]float64, n)
		s := timeMedian(3, func() { blas.Dsymv(blas.Lower, n, 1, a, n, x, 1, 0, y, 1) })
		r.beta = 2 * float64(n) * float64(n) / s / 1e9
	})
	// Return the big array to the OS so the traced operations that follow
	// run on a heap like the untraced pass's.
	debug.FreeOSMemory()
	return r
}

func (r roofline) emit(rec *runRecord) {
	rec.Metrics.set("blas.dgemm_gflops", r.alpha)
	rec.Metrics.set("blas.dgemm_tile_gflops", r.tile)
	rec.Metrics.set("blas.dsymv_gflops", r.beta)
	rec.Notes["roofline"] = fmt.Sprintf("alpha: Dgemm %d^3, one thread; tile: Dgemm %d^3; beta: Dsymv n=%d (%d MiB array, LLC %d MiB)",
		r.gemmN, r.tileN, r.symvN, r.symvBytes>>20, r.llc>>20)
}
