package blas

import (
	"sync"
	"sync/atomic"
)

// Kernel selects the GEMM micro-kernel. Both produce bitwise identical
// results for the same KC (every element of C is accumulated as an
// independent fused chain over k in ascending order, split at KC boundaries;
// the accumulator tile shape and the MC/NC cache blocking never reorder a
// chain), so the choice never perturbs solver output.
type Kernel int

const (
	// KernelAuto runs the best tile this machine has, decided once at
	// start-up: the 12×4 AVX2/FMA assembly kernel on amd64 when the CPU has
	// AVX2 and FMA and the OS saves YMM state (AsmActive), otherwise — an
	// older x86, or any other architecture — the portable 2×4 kernel.
	KernelAuto Kernel = iota
	// Kernel2x4 is the portable 2×4 accumulator tile (8 chains, which fit
	// the 16-register scalar FPU file of amd64 without spilling): the twin
	// the assembly kernel is tested against, and the only way to force the
	// portable path on a machine that has the assembly one.
	Kernel2x4
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case Kernel2x4:
		return "2x4"
	}
	return "unknown"
}

// Blocking is the cache/register blocking of the Level 3 GEMM driver. MC×KC
// is the packed A block (streamed from L2), KC×NC the packed B block (reused
// across every MC strip), and Kernel the accumulator tile.
//
// KC is the one parameter that is *not* numerically neutral: C is
// accumulated in KC-sized partial sums, so changing it changes the rounding
// of every result. Every solve runs at DefaultKC, which keeps both kernels
// and every MC/NC bitwise identical.
type Blocking struct {
	MC, KC, NC int
	Kernel     Kernel
}

// Default blocking. KC is the one value results are computed with; MC is a
// whole number of 12-row assembly panels (a 264 KiB A-block), NC a B panel
// wide enough to amortize packing across all MC strips.
const (
	DefaultMC = 264
	DefaultKC = 128
	DefaultNC = 512
)

// DefaultBlocking returns the stock configuration.
func DefaultBlocking() Blocking {
	return Blocking{MC: DefaultMC, KC: DefaultKC, NC: DefaultNC, Kernel: KernelAuto}
}

// normalize fills unset (≤ 0) fields with the defaults and clamps the rest
// to sane values in place (minimums keep the pack buffers non-degenerate;
// NC is rounded up to the 4-column tile so packed B panels stay uniform).
// The zero Blocking therefore means "stock configuration except where set":
// Blocking{Kernel: Kernel2x4} selects a kernel without disturbing the cache
// blocking.
func (b *Blocking) normalize() {
	if b.MC <= 0 {
		b.MC = DefaultMC
	}
	if b.KC <= 0 {
		b.KC = DefaultKC
	}
	if b.NC <= 0 {
		b.NC = DefaultNC
	}
	if b.MC < 8 {
		b.MC = 8
	}
	if b.KC < 8 {
		b.KC = 8
	}
	if b.NC < 8 {
		b.NC = 8
	}
	b.NC = (b.NC + 3) &^ 3
	if b.Kernel < KernelAuto || b.Kernel > Kernel2x4 {
		b.Kernel = KernelAuto
	}
}

// blocking is the active configuration, read once per Dgemm call.
var blocking atomic.Pointer[Blocking]

func init() {
	b := DefaultBlocking()
	blocking.Store(&b)
}

// SetBlocking installs a new GEMM blocking configuration and returns the
// previous one. Out-of-range values are clamped. The configuration is
// global: it describes the machine, not a particular caller. No solver path
// sets it; tests use it to force the portable kernel (Kernel2x4) and to pin
// that results do not depend on MC and NC.
func SetBlocking(b Blocking) Blocking {
	b.normalize()
	old := blocking.Swap(&b)
	return *old
}

// CurrentBlocking reports the active GEMM blocking configuration.
func CurrentBlocking() Blocking { return *blocking.Load() }

// asmKernels reports whether this process runs the assembly kernels — the
// GEMM micro-kernel and the seven Level-1/2 kernels. It is the CPU probe's
// answer, taken once at package init (always false off amd64); tests flip it
// to run the portable twins on a machine that has the assembly.
var asmKernels = probeAsm()

// AsmActive reports whether this process runs the assembly kernels: an amd64
// binary on a CPU and OS that pass the AVX2/FMA probe — i.e. whether
// KernelAuto runs the 12×4 assembly tile. Exposed for tests, which log it so a
// run that only exercised the portable path says so.
func AsmActive() bool { return asmKernels }

// microNR is the fixed accumulator-tile width: every micro-kernel consumes
// packed B in 4-column panels.
const microNR = 4

// asmMR is the assembly kernel's tile height: 12 rows are three YMM loads per
// k step, whose 12 accumulator chains cover the FMA latency on two ports.
const asmMR = 12

// resolveMR maps the configured kernel to the packed-A panel height and
// reports whether the assembly kernel (and with it the k-interleaved, padded
// A layout) is in use.
func (b *Blocking) resolveMR() (mr int, useAsm bool) {
	if b.Kernel == KernelAuto && asmKernels {
		return asmMR, true
	}
	return 2, false
}

// packBuf carries the packed-A and packed-B panels of one blocked GEMM
// invocation. The buffers are threaded through the whole driver (one Get
// per Dgemm call, one per worker on the parallel path) instead of living on
// the micro-kernel's stack, which is what lets B be packed once per
// (NC, KC) block and reused across every MC strip.
type packBuf struct {
	a []float64
	b []float64
}

var packBufPool = sync.Pool{New: func() interface{} { return new(packBuf) }}

// getPackBuf returns a buffer with at least na floats of A-panel and nb of
// B-panel storage. Callers size the request to the actual problem
// (min(MC,m)·min(KC,k) etc.), not the configured maxima: the tile kernels
// issue millions of tiny gemms, and handing each one the full default-sized
// buffers would thrash the garbage collector whenever the pool goes cold.
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
