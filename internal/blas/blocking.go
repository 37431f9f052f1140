package blas

import "sync"

// The cache blocking of the Level 3 GEMM driver: MC×KC is the packed A block
// (streamed from L2), KC×NC the packed B block (reused across every MC strip).
//
// KC is the one value that is *not* numerically neutral: C is accumulated in
// KC-sized partial sums, so a different KC would change the rounding of every
// result. MC and NC only choose which elements are computed together and
// never reorder a chain. MC is a whole number of 12-row assembly panels (a
// 264 KiB A-block), NC a B panel wide enough to amortize packing across all
// MC strips.
const (
	DefaultMC = 264
	DefaultKC = 128
	DefaultNC = 512
)

// probedAsm is the CPU probe's answer, taken once at package init (always
// false off amd64).
var probedAsm = probeAsm()

// asmKernels reports whether this process runs the assembly kernels — the
// GEMM micro-kernel and the seven Level-1/2 kernels. It is the probe's answer
// unless UseAsm turned it off.
var asmKernels = probedAsm

// UseAsm turns the assembly kernels on or off and returns the previous
// setting. It can turn them off, but never on where the CPU probe failed.
// Both paths give bitwise identical results; tests use it to run the portable
// twins on a machine that has the assembly. No solver path calls it, and it
// must not be called while a BLAS routine runs.
func UseAsm(on bool) (prev bool) {
	prev = asmKernels
	asmKernels = on && probedAsm
	return prev
}

// AsmActive reports whether this process runs the assembly kernels: an amd64
// binary on a CPU and OS that pass the AVX2/FMA probe, with UseAsm not
// having turned them off. Exposed for tests, which log it so a run that only
// exercised the portable path says so.
func AsmActive() bool { return asmKernels }

// microNR is the fixed accumulator-tile width: every micro-kernel consumes
// packed B in 4-column panels.
const microNR = 4

// asmMR is the assembly kernel's tile height: 12 rows are three YMM loads per
// k step, whose 12 accumulator chains cover the FMA latency on two ports.
const asmMR = 12

// resolveMR reports the packed-A panel height of the GEMM micro-kernel in
// use and whether it is the assembly kernel (and with it the k-interleaved,
// padded A layout). Otherwise it is the portable 2×4 accumulator tile (8
// chains, which fit the 16-register scalar FPU file of amd64 without
// spilling). Every element of C is accumulated as one fused chain over k in
// ascending order, split at KC boundaries, by either kernel, so the choice
// never perturbs results.
func resolveMR() (mr int, useAsm bool) {
	if asmKernels {
		return asmMR, true
	}
	return 2, false
}

// packBuf carries the packed-A and packed-B panels of one blocked GEMM
// invocation. The buffers are threaded through the whole driver (one Get
// per Dgemm call) instead of living on the micro-kernel's stack, which is
// what lets B be packed once per (NC, KC) block and reused across every MC
// strip.
type packBuf struct {
	a []float64
	b []float64
}

var packBufPool = sync.Pool{New: func() interface{} { return new(packBuf) }}

// getPackBuf returns a buffer with at least na floats of A-panel and nb of
// B-panel storage. Callers size the request to the actual problem
// (min(MC,m)·min(KC,k) etc.), not the blocking maxima: the tile kernels
// issue millions of tiny gemms, and handing each one the full-sized buffers
// would thrash the garbage collector whenever the pool goes cold.
func getPackBuf(na, nb int) *packBuf {
	pb := packBufPool.Get().(*packBuf)
	if cap(pb.a) < na {
		pb.a = make([]float64, na)
	}
	if cap(pb.b) < nb {
		pb.b = make([]float64, nb)
	}
	pb.a = pb.a[:na]
	pb.b = pb.b[:nb]
	return pb
}

func putPackBuf(pb *packBuf) { packBufPool.Put(pb) }
