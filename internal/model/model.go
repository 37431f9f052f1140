// Package model implements the paper's execution-time and complexity models
// (§4, Eqs. 4–6) and the bulge-chasing tuning model (§7.1, Eqs. 9–10). The
// machine parameters they take (α = compute-bound xGEMM rate, β =
// memory-bound xGEMV/xSYMV rate) are measured by the benchmark's in-run
// roofline (blas.dgemm_gflops, blas.dsymv_gflops), as Table 3 does for the
// paper's two test machines.
package model

import "math"

// Params are the machine/algorithm parameters of Eqs. 4–6.
type Params struct {
	// Alpha is the compute-bound execution rate (xGEMM), flop/s per core.
	Alpha float64
	// Beta is the memory-bound execution rate (xGEMV/xSYMV), flop/s.
	// The one-stage reduction runs at this rate no matter how many cores
	// participate — that is the point of the paper's Eq. 4.
	Beta float64
	// P is the number of cores.
	P int
	// PPrime is the parallelism available in the bulge-chasing stage,
	// bounded by min(D, P); 0 means use that bound.
	PPrime int
	// Gamma is the memory-latency coefficient of Eq. 10 (flops-equivalent
	// per fetched element when the working set misses cache).
	Gamma float64
}

func (p Params) pPrime(d int) float64 {
	pp := p.PPrime
	if pp <= 0 {
		pp = min(d, p.P)
	}
	if pp < 1 {
		pp = 1
	}
	return float64(pp)
}

// TimeOneStage evaluates Eq. 4: the one-stage eigensolver time for matrix
// size n when a fraction f (0 < f ≤ 1) of the eigenvectors is wanted. The
// reduction term runs at the memory-bound rate β; the back-transformation
// is compute-bound.
func TimeOneStage(n float64, f float64, p Params) float64 {
	fn := n
	return 4.0/3.0*fn*fn*fn/p.Beta + 2*fn*fn*fn*f/(p.Alpha*float64(p.P))
}

// TimeTwoStage evaluates Eq. 5: the two-stage time with band width d. The
// first stage and the (doubled) back-transformation are compute-bound; the
// bulge chasing is the 6·D·n² term with limited parallelism p'.
func TimeTwoStage(n float64, d int, f float64, p Params) float64 {
	fn := n
	ap := p.Alpha * float64(p.P)
	return 4.0/3.0*fn*fn*fn/ap + 6*float64(d)*fn*fn/(p.Alpha*p.pPrime(d)) + 4*fn*fn*fn*f/ap
}

// Crossover evaluates Eq. 6: the matrix size at which the two approaches
// break even (two-stage is faster for larger n). It returns +Inf when the
// two-stage approach never wins (denominator ≤ 0, e.g. f ≈ 1 with αp ≈ β).
// Derived with p' = p, like the paper.
func Crossover(d int, f float64, p Params) float64 {
	den := 2*p.Alpha*float64(p.P) - 3*f*p.Beta - 2*p.Beta
	if den <= 0 {
		return math.Inf(1)
	}
	return 9 * p.Beta * float64(d) / den
}

// AsymptoticSpeedup evaluates lim_{n→∞} t₁ₛ/t₂ₛ = (αp/β + 3/2)/(1 + 3f)
// (§4): with plentiful cores the one-stage approach is slower by the full
// compute-to-memory rate ratio.
func AsymptoticSpeedup(f float64, p Params) float64 {
	return (p.Alpha*float64(p.P)/p.Beta + 1.5) / (1 + 3*f)
}

// BulgeComputeTime evaluates Eq. 9: t_x = n²·n_b/α.
func BulgeComputeTime(n float64, nb int, p Params) float64 {
	return n * n * float64(nb) / p.Alpha
}

// BulgeCommTime evaluates Eq. 10: t_c = n²·(n_b/β + γ/n_b).
func BulgeCommTime(n float64, nb int, p Params) float64 {
	return n * n * (float64(nb)/p.Beta + p.Gamma/float64(nb))
}

// Gamma is the latency coefficient γ of Eq. 10 for this substrate: the extra
// time charged per band element when the working set misses cache, amortized
// over the n_b-element reuse window (so γ/n_b is seconds per element). One
// ~100 ns line miss per 8-element line gives the order of magnitude.
const Gamma = 100e-9 * 8

// OptimalNB minimizes t_x + t_c over n_b:
// d/dn_b [n_b/α + n_b/β + γ/n_b] = 0  ⇒  n_b* = sqrt(γ·αβ/(α+β)).
func OptimalNB(p Params) float64 {
	return math.Sqrt(p.Gamma * p.Alpha * p.Beta / (p.Alpha + p.Beta))
}

// Table1Row is one row of the paper's Table 1: leading-order flop counts of
// the three standard methods (coefficients of n³, except EigT for MRRR
// which is O(n²)).
type Table1Row struct {
	Routine string
	Method  string
	TRD     float64 // reduction to tridiagonal
	GenQ    float64 // explicit Q generation (QR method only)
	EigT    float64 // tridiagonal eigensolver (upper bound coefficient)
	UpdateZ float64 // back-transformation
}

// Table1 returns the complexity table for the one-stage methods
// (Q₂ ≡ I case of the paper's Table 1).
func Table1() []Table1Row {
	return []Table1Row{
		{Routine: "EVD", Method: "D&C", TRD: 4.0 / 3, GenQ: 0, EigT: 8.0 / 3, UpdateZ: 4}, // EigT is 4/3..8/3, deflation-dependent
		{Routine: "EVR", Method: "MRRR", TRD: 4.0 / 3, GenQ: 0, EigT: 0, UpdateZ: 4},      // EigT O(n²)
		{Routine: "EV", Method: "QR", TRD: 4.0 / 3, GenQ: 8.0 / 3, EigT: 6, UpdateZ: 0},
	}
}
