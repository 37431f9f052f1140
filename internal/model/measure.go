package model

import (
	"time"

	"repro/internal/blas"
)

// alphaSize is the matrix order of the compute-bound measurement. Dgemm packs
// O(n²) values in Go around O(n³) flops of micro-kernel, and α is the rate the
// kernel sustains, so n is taken large enough that the packing is noise: the
// plain build reads the same 15.7 Gflop/s at 192 and at 768, but under the
// race detector, which instruments the packing loops and nothing inside the
// assembly, 192 read 5.6 and 768 reads 11.4 — against 8.4 for the all-assembly
// Dsymv, so only the larger size keeps α > β measurable there. 768 is also
// below 2·DefaultNC, where Dgemm would start splitting across goroutines.
const alphaSize = 768

// MeasureAlpha benchmarks the blocked Dgemm kernel and returns its rate in
// flop/s — the machine's α. The measurement is about a tenth of a second.
func MeasureAlpha() float64 {
	const n = alphaSize
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	// Warm up.
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	iters := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		iters++
	}
	sec := time.Since(start).Seconds()
	return float64(iters) * 2 * float64(n) * float64(n) * float64(n) / sec
}

// betaSize is the matrix order used for the memory-bound kernel
// measurement: 4200² doubles = 141 MB, beyond even the 105 MiB L3 of large
// server parts, so the measured rate is genuinely the DRAM-streaming rate β
// that the one-stage reduction is stuck at for big matrices. (Measuring at
// an in-L3 size on a big-cache host silently reports a compute-like rate
// and inverts every model prediction — found the hard way; see
// EXPERIMENTS.md.)
const betaSize = 4200

// MeasureBeta benchmarks Dsymv on a matrix far larger than any cache level
// and returns its rate in flop/s — the machine's β.
func MeasureBeta() float64 {
	n := betaSize
	a := make([]float64, n*n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range a {
		a[i] = float64(i%9) * 0.125
	}
	for i := range x {
		x[i] = 1
	}
	iters := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		blas.Dsymv(blas.Lower, n, 1, a, n, x, 1, 0, y, 1)
		iters++
	}
	sec := time.Since(start).Seconds()
	return float64(iters) * 2 * float64(n) * float64(n) / sec
}

// MeasureParams measures α and β on this machine and returns a Params with
// the given core count and a γ fitted so that the model's optimal n_b
// matches the empirically reasonable range for this substrate.
func MeasureParams(p int) Params {
	alpha := MeasureAlpha()
	beta := MeasureBeta()
	// γ is the latency coefficient of Eq. 10: the extra time charged per
	// band element when the working set misses cache, amortized over the
	// n_b-element reuse window (so γ/n_b is seconds per element). One
	// ~100 ns line miss per 8-element line gives the order of magnitude;
	// cmd/eigtune refines the resulting n_b* empirically.
	const gamma = 100e-9 * 8
	return Params{Alpha: alpha, Beta: beta, P: p, Gamma: gamma}
}
