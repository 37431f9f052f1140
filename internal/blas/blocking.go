package blas

import "sync"

// The cache blocking of the Level 3 GEMM driver: MC×KC is the packed A block
// (streamed from L2), KC×NC the packed B block (reused across every MC strip).
//
// KC is the one value that is *not* numerically neutral: C is accumulated in
// KC-sized partial sums, so a different KC would change the rounding of every
// result. MC and NC only choose which elements are computed together and
// never reorder a chain. MC is a whole number of panels of every kernel (20
// of 12 rows, 15 of 16: a 240 KiB A-block), NC a B panel wide enough to
// amortize packing across all MC strips.
const (
	DefaultMC = 240
	DefaultKC = 128
	DefaultNC = 512
)

// kernelFamily is a GEMM micro-kernel and, with it, its packed-A layout.
type kernelFamily uint8

const (
	// famPortable is the 2×4 scalar tile of gemm_kernels.go on row-stream
	// panels of exact height.
	famPortable kernelFamily = iota
	// famAVX2 is the 12×4 AVX2/FMA tile: 12 rows are three YMM loads per k
	// step, whose 12 accumulator chains cover the FMA latency on two ports.
	famAVX2
	// famAVX512 is the 16×8 AVX-512F tile: two ZMM loads and eight
	// broadcasts per k step feed 16 accumulator chains, which cover the FMA
	// latency on two ports twice over; ragged edges are opmask-masked.
	famAVX512
)

// mr is the family's packed-A panel height.
func (f kernelFamily) mr() int { return [...]int{2, 12, 16}[f] }

// nr is the family's tile width: the number of B streams, length-kc columns
// ldb apart, its kernel reads at once. A packed B panel is nr such streams,
// so the 8-stream panel of the AVX-512 tile is exactly two of the 4-stream
// panels the others read.
func (f kernelFamily) nr() int { return [...]int{4, 4, 8}[f] }

func (f kernelFamily) String() string { return [...]string{"portable", "avx2", "avx512"}[f] }

// probedKernel is the CPU probe's answer, taken once at package init (always
// famPortable off amd64).
var probedKernel = probeKernel()

// kernel is the GEMM micro-kernel family this process runs: the probe's
// answer unless UseAsm turned the assembly off. Every family other than
// famPortable also runs the eight AVX2/FMA Level-1/2 kernels.
var kernel = probedKernel

// UseAsm turns the assembly kernels on or off and returns the previous
// setting. It can turn them off, but never on where the CPU probe failed,
// and on selects the probe's GEMM kernel. Every kernel gives bitwise
// identical results; tests use it to run the portable twins on a machine that
// has the assembly. No solver path calls it, and it must not be called while
// a BLAS routine runs.
func UseAsm(on bool) (prev bool) {
	prev = kernel != famPortable
	kernel = famPortable
	if on {
		kernel = probedKernel
	}
	return prev
}

// GemmKernel names the GEMM micro-kernel in use — "avx512", "avx2" or
// "portable" — for tests and scripts to log.
func GemmKernel() string { return kernel.String() }

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
