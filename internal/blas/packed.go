package blas

// Packing is a snapshot of the packed left-operand layout Dgemm's blocked
// driver uses with the kernels now in use: the micro-kernel family, which
// fixes the A-panel height and whether panels are k-interleaved and padded to
// whole tiles (assembly kernels) or plain row streams of exact height
// (portable kernels). Every operand is cut into DefaultKC chunks of k, as
// Dgemm cuts its chains. It lets a caller that multiplies by the same matrix
// many times — the prepared block reflectors of internal/householder — pack
// it once with PackA and then run the micro-kernel grid on it directly with
// GemmPackedA, skipping Dgemm's per-call packing.
//
// An operand packed under one Packing must be multiplied under the same
// value: UseAsm may change the layout, so owners of long-lived packed
// operands keep the Packing they were built with. Results do not depend on
// the layout (kernel family), exactly as for Dgemm.
type Packing struct {
	kern kernelFamily
}

// CurrentPacking returns the layout of the kernels now in use.
func CurrentPacking() Packing { return Packing{kern: kernel} }

// roundUp rounds n up to a multiple of to.
func roundUp(n, to int) int { return (n + to - 1) / to * to }

// packedRows is the number of rows an m-row left operand occupies once
// packed: the assembly layouts pad the last panel to a whole tile.
func (p Packing) packedRows(m int) int {
	if p.kern != famPortable {
		return roundUp(m, p.kern.mr())
	}
	return m
}

// aChunk locates KC chunk kk of a packed m×k left operand: its skyline header
// (two values per row-panel) and its block of panels.
func (p Packing) aChunk(ap []float64, m, kk, kc int) (sky, panels []float64) {
	hdr := 2 * ((m + p.kern.mr() - 1) / p.kern.mr())
	rows := p.packedRows(m)
	off := rows*kk + hdr*(kk/DefaultKC)
	return ap[off : off+hdr], ap[off+hdr : off+hdr+rows*kc]
}

// ALen is the packed length of an m×k left operand.
func (p Packing) ALen(m, k int) int {
	mr := p.kern.mr()
	return p.packedRows(m)*k + 2*((m+mr-1)/mr)*((k+DefaultKC-1)/DefaultKC)
}

// BScratch is the scratch GemmPackedA needs for a k×n right operand: room
// for one KC chunk of the ragged last B panel, if n has one.
func (p Packing) BScratch(k, n int) int {
	if n%microNR == 0 {
		return 0
	}
	return microNR * min(k, DefaultKC)
}

// PackA packs the m×k matrix op(A) as a left operand: one m×kc block of
// row-panels per KC chunk of k, chunk after chunk. Each block is preceded by
// its skyline — per row-panel, the k range outside which all of the panel's
// rows are exactly zero — so that GemmPackedA runs a structured operand (a
// triangular factor, a trapezoidal or banded V) on its nonzero range only,
// without the caller describing the structure.
func (p Packing) PackA(dst []float64, trans Transpose, a []float64, lda, m, k int) {
	mr := p.kern.mr()
	for kk := 0; kk < k; kk += DefaultKC {
		kc := min(DefaultKC, k-kk)
		sky, panels := p.aChunk(dst, m, kk, kc)
		packA(panels, trans, a, lda, 0, kk, m, kc, p.kern)
		for r0, pi := 0, 0; r0 < m; r0, pi = r0+mr, pi+1 {
			lo, hi := kc, 0
			for r := r0; r < min(r0+mr, m); r++ {
				// Row r of op(A) within the chunk: stride lda (NoTrans) or
				// contiguous (Trans).
				base, inc := r+kk*lda, lda
				if trans == Trans {
					base, inc = kk+r*lda, 1
				}
				row := a[base:]
				for l := 0; l < lo; l++ {
					if row[l*inc] != 0 {
						lo = l
					}
				}
				for l := kc - 1; l >= hi; l-- {
					if row[l*inc] != 0 {
						hi = l + 1
					}
				}
			}
			sky[2*pi], sky[2*pi+1] = float64(lo), float64(hi)
		}
	}
}

// GemmPackedA computes C += A·B for the m×n column-major C, with A (m×k)
// packed by PackA and B a plain k×n column-major matrix. The micro-kernels
// read B in place — columns 4q..4q+3 of a column-major matrix are exactly the
// four streams of B panel q — so nothing is copied; that is also what lets a
// product accumulated into a k×n matrix serve directly as the next product's
// right operand. Only a ragged last panel (n mod 4 columns) is packed into
// scratch (BScratch(k, n) values), zero-padded to the four streams every
// kernel reads.
//
// Every element of C is the same accumulation chain Dgemm runs — ascending k,
// one partial sum added to memory per KC chunk — so for finite operands the
// result is bitwise what Dgemm(…, 1, A, B, 1, C) gives, for every kernel and
// for any split of C into column ranges.
func (p Packing) GemmPackedA(m, n, k int, ap, b []float64, ldb int, c []float64, ldc int, scratch []float64) {
	direct := n &^ (microNR - 1) // leading columns of B the kernels read in place
	rest := n - direct
	for kk := 0; kk < k; kk += DefaultKC {
		kc := min(DefaultKC, k-kk)
		sky, panels := p.aChunk(ap, m, kk, kc)
		if direct > 0 {
			gemmMacro(panels, b[kk:], ldb, m, direct, kc, p.kern, c, ldc, sky)
		}
		if rest > 0 {
			bp := scratch[:microNR*kc]
			packB(bp, NoTrans, b[direct*ldb:], ldb, kk, 0, kc, rest, 1)
			gemmMacro(panels, bp, kc, m, rest, kc, p.kern, c[direct*ldc:], ldc, sky)
		}
	}
}
