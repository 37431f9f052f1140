package blas

import (
	"sync"
	"sync/atomic"
)

// Kernel selects the GEMM micro-kernel family. All kernels produce bitwise
// identical results for the same KC (every element of C is accumulated as an
// independent chain over k in ascending order, split at KC boundaries; the
// accumulator tile shape and the MC/NC cache blocking never reorder a
// chain), so the autotuner may switch kernels freely without perturbing
// solver output.
type Kernel int

const (
	// KernelAuto picks the best tile this machine runs, decided once at
	// start-up: the 8×4 assembly kernel on amd64 when the CPU has AVX2 and the
	// OS saves YMM state (AsmActive), otherwise — an older x86, or any other
	// architecture — the portable 2×4 kernel (8 accumulator chains fit the
	// 16-register scalar FPU file of amd64 without spilling; the wider
	// portable tiles win only on machines with larger register files).
	// Naming a portable kernel here is the only way to force the portable
	// path on a machine that has the assembly one.
	KernelAuto Kernel = iota
	// Kernel2x4 is the portable 2×4 accumulator tile (8 chains), the
	// narrowest register footprint.
	Kernel2x4
	// Kernel4x4 is the portable 4×4 accumulator tile (16 chains): each
	// packed load is reused four times, which keeps the scalar FPU pipeline
	// full without spilling on amd64.
	Kernel4x4
	// Kernel8x4 is the 8×4 accumulator tile (32 chains): the assembly
	// kernel's native shape, and the assembly kernel itself wherever
	// AsmActive. The portable form spills some accumulators to the
	// (L1-resident) stack; it exists so machines without the assembly can
	// run the identical tiling.
	Kernel8x4
	// KernelSeed is the frozen pre-rework kernel (2×4 tile, B re-packed per
	// j-strip, fixed 128/128/64 blocking): the "before" baseline of
	// cmd/eigtune's kernel sweep and the reference the bitwise gates
	// compare against.
	KernelSeed
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case Kernel2x4:
		return "2x4"
	case Kernel4x4:
		return "4x4"
	case Kernel8x4:
		return "8x4"
	case KernelSeed:
		return "seed"
	}
	return "unknown"
}

// Blocking is the runtime-tunable cache/register blocking of the Level 3
// GEMM driver. MC×KC is the packed A block (streamed from L2), KC×NC the
// packed B block (reused across every MC strip), and Kernel the accumulator
// tile.
//
// KC is the one parameter that is *not* numerically neutral: C is
// accumulated in KC-sized partial sums, so changing it changes the rounding
// of every result. The default (and the only value the stock autotuner
// persists) is DefaultKC, which keeps all kernels, the seed baseline, and
// tuned-vs-untuned runs bitwise identical.
type Blocking struct {
	MC, KC, NC int
	Kernel     Kernel
}

// Default blocking. KC matches the seed kernel so the rework is bitwise
// identical to it; MC/NC are a 256 KiB A-block and a B panel wide enough to
// amortize packing across all MC strips.
const (
	DefaultMC = 256
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
// Blocking{Kernel: Kernel4x4} selects a kernel without disturbing the cache
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
	if b.Kernel < KernelAuto || b.Kernel > KernelSeed {
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
// global: it describes the machine, not a particular caller, and is
// normally installed once from the persisted tune profile.
func SetBlocking(b Blocking) Blocking {
	b.normalize()
	old := blocking.Swap(&b)
	return *old
}

// CurrentBlocking reports the active GEMM blocking configuration.
func CurrentBlocking() Blocking { return *blocking.Load() }

// AsmActive reports whether this process runs the assembly micro-kernel: an
// amd64 binary on a CPU and OS that pass the AVX2 probe — i.e. whether
// KernelAuto and Kernel8x4 run the assembly tiles. Exposed for eigtune, which
// prints it alongside measured rates, and for tests, which log it so a run
// that only exercised the portable path says so.
func AsmActive() bool { return asmActive() }

// microNR is the fixed accumulator-tile width: every micro-kernel consumes
// packed B in 4-column panels.
const microNR = 4

// resolveMR maps the configured kernel to the packed-A panel height and
// reports whether the assembly kernel (and with it the k-interleaved, padded
// A layout) is in use.
func (b *Blocking) resolveMR() (mr int, useAsm bool) {
	k := b.Kernel
	if k == KernelAuto {
		if asmActive() {
			return 8, true
		}
		return 2, false
	}
	switch k {
	case Kernel2x4:
		return 2, false
	case Kernel8x4:
		return 8, asmActive()
	default:
		return 4, false
	}
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
