package householder

import "repro/internal/blas"

// Form selects which of op(H) a Block is prepared to apply. Each form costs
// one packed rows×k operand (plus k×k for the TS shape), so owners prepare
// only what they will use.
type Form uint8

const (
	// FormH prepares H = I − V·T·Vᵀ (trans = NoTrans).
	FormH Form = 1 << iota
	// FormHT prepares Hᵀ = I − V·Tᵀ·Vᵀ (trans = Trans).
	FormHT
)

func formIndex(trans blas.Transpose) int {
	if trans == blas.Trans {
		return 1
	}
	return 0
}

// applySlab is the number of C columns one pass of Apply reduces to W and
// updates: wide enough to amortize the loop over the packed reflector, narrow
// enough that the slab of C and W stay in L1 beside the reflector panels for
// every shape the solver uses (rows ≤ ~100).
const applySlab = 16

// Block is a compact-WY block reflector H = I − V·T·Vᵀ prepared for repeated
// application. Where Larft leaves V and T as the factorization stored them,
// a Block holds what the micro-kernel consumes: Vᵀ and −V·op(T), packed once
// in blas.Packing's left-operand layout with the unit diagonal and the zeros
// above it explicit. Applying it is then
//
//	W = Vᵀ·C ;  C += (−V·op(T))·W
//
// as two micro-kernel passes over a slab of C, with W produced directly as the
// second pass's right operand: no triangular multiply (the packed operands
// carry their zero structure as a skyline the kernels skip), no staging
// copies, no per-call packing of V, of C or of W (every kernel reads a
// column-major right operand in place), no allocation.
//
// Two shapes share the engine. The triangular-top shape is Larfb's: V is
// rows×k, unit lower trapezoidal. The TS ("triangle on top of square") shape
// is the tile QR's: V = [I_k ; V2] with V2 dense rows×k, applied to a pair
// (C1 k×n, C2 rows×n); its identity block is never multiplied — W starts as
// C1 and C1 += (−op(T))·W uses a third packed operand.
//
// Every result column is a fixed sequence of per-element accumulation chains
// (ascending index, split only at the packing's KC), so it is bitwise
// independent of the kernel family and of how the caller splits C into column
// blocks — the property that keeps the parallel appliers identical to the
// sequential ones at any column-block width.
type Block struct {
	pk   blas.Packing
	rows int // rows of the stored part of V (V2 for the TS shape)
	k    int // reflector count
	ts   bool
	vt   []float64    // packed Vᵀ (k × rows)
	body [2][]float64 // packed −V·op(T) (rows × k), indexed by formIndex
	top  [2][]float64 // TS shape: packed −op(T) (k × k)
}

// PackedLen is the storage a Block of the given shape and forms needs with
// the GEMM kernels now in use (blas.CurrentPacking).
func PackedLen(ts bool, rows, k int, forms Form) int {
	pk := blas.CurrentPacking()
	n := pk.ALen(k, rows)
	for f := 0; f < 2; f++ {
		if forms&(1<<f) == 0 {
			continue
		}
		n += pk.ALen(rows, k)
		if ts {
			n += pk.ALen(k, k)
		}
	}
	return n
}

// PrepareWork is the scratch Prepare needs.
func PrepareWork(rows, k int) int { return 2*rows*k + k*k }

// Prepare builds the packed operands from a reflector block as Larft (or
// band.Tsqrt) left it: v is rows×k with leading dimension ldv — unit lower
// trapezoidal with only the part below the diagonal read, or, with ts set,
// the dense V2 — and t the k×k upper triangular factor (only its upper
// triangle is read). store receives the operands (PackedLen values) and is
// owned by the Block afterwards; work is PrepareWork scratch. The layouts are
// those of blas.CurrentPacking now and travel with the Block.
func (b *Block) Prepare(ts bool, rows, k int, v []float64, ldv int, t []float64, ldt int, forms Form, store, work []float64) {
	pk := blas.CurrentPacking()
	*b = Block{pk: pk, rows: rows, k: k, ts: ts}
	if rows == 0 || k == 0 {
		return
	}
	// td = −T with its strictly lower triangle zeroed, vd = V with the
	// implicit structure written out, p = vd·op(td).
	td := work[:k*k]
	p := work[k*k : k*k+rows*k]
	for j := 0; j < k; j++ {
		col := td[j*k : j*k+k]
		for i := 0; i <= j; i++ {
			col[i] = -t[i+j*ldt]
		}
		clear(col[j+1:])
	}
	vd, ldvd := v, ldv
	if !ts {
		vd, ldvd = work[k*k+rows*k:k*k+2*rows*k], rows
		for j := 0; j < k; j++ {
			col := vd[j*rows : j*rows+rows]
			clear(col[:j])
			col[j] = 1
			copy(col[j+1:], v[j+1+j*ldv:rows+j*ldv])
		}
	}
	off := pk.ALen(k, rows)
	b.vt = store[:off:off]
	pk.PackA(b.vt, blas.Trans, vd, ldvd, k, rows)
	for f, tr := range [2]blas.Transpose{blas.NoTrans, blas.Trans} {
		if forms&(1<<f) == 0 {
			continue
		}
		blas.Dgemm(blas.NoTrans, tr, rows, k, k, 1, vd, ldvd, td, k, 0, p, rows)
		n := pk.ALen(rows, k)
		b.body[f] = store[off : off+n : off+n]
		off += n
		pk.PackA(b.body[f], blas.NoTrans, p, rows, rows, k)
		if ts {
			n = pk.ALen(k, k)
			b.top[f] = store[off : off+n : off+n]
			off += n
			pk.PackA(b.top[f], tr, td, k, k, k)
		}
	}
}

// Shape reports the rows of the stored part of V and the reflector count.
func (b *Block) Shape() (rows, k int) { return b.rows, b.k }

// ApplyWork is the scratch Apply/ApplyTS need for a rows×k block (rows of the
// stored part of V) and n free columns (Left) or rows (Right) of C. The Left
// requirement does not grow with n.
func ApplyWork(side blas.Side, rows, k, n int) int {
	w := (k + max(rows, k)) * applySlab
	if side == blas.Right {
		w += (rows + k) * n
	}
	return w
}

// Apply applies the triangular-top block reflector:
//
//	side = Left:  C := op(H)·C, C is rows×n
//	side = Right: C := C·op(H), C is n×rows
//
// trans must be one of the forms the Block was prepared with; work must hold
// ApplyWork(side, rows, k, n) values.
func (b *Block) Apply(side blas.Side, trans blas.Transpose, n int, c []float64, ldc int, work []float64) {
	if b.ts {
		panic("householder: Apply on a TS block")
	}
	if side == blas.Left {
		b.left(trans, n, nil, 0, c, ldc, work)
	} else {
		b.right(trans, n, nil, 0, c, ldc, work)
	}
}

// ApplyTS applies the TS block reflector H = I − [I;V2]·op(T)·[I;V2]ᵀ to a
// pair of tiles:
//
//	side = Left:  [A1; A2] := op(H)·[A1; A2], A1 is k×n, A2 is rows×n
//	side = Right: [A1, A2] := [A1, A2]·op(H), A1 is n×k, A2 is n×rows
//
// Equivalent to PLASMA's CORE_dtsmqr. work must hold ApplyWork(side, rows, k, n).
func (b *Block) ApplyTS(side blas.Side, trans blas.Transpose, n int, a1 []float64, lda1 int, a2 []float64, lda2 int, work []float64) {
	if !b.ts {
		panic("householder: ApplyTS on a triangular-top block")
	}
	if side == blas.Left {
		b.left(trans, n, a1, lda1, a2, lda2, work)
	} else {
		b.right(trans, n, a1, lda1, a2, lda2, work)
	}
}

// left is the engine: C2 (rows×n) pairs with the stored rows of V and, for
// the TS shape, C1 (k×n) with its identity block.
func (b *Block) left(trans blas.Transpose, n int, c1 []float64, ldc1 int, c2 []float64, ldc2 int, work []float64) {
	rows, k, pk := b.rows, b.k, b.pk
	if rows == 0 || k == 0 || n == 0 {
		return
	}
	f := formIndex(trans)
	body, top := b.body[f], b.top[f]
	if body == nil {
		panic("householder: block reflector not prepared for this form")
	}
	w := work[:k*applySlab]
	scratch := work[k*applySlab:]
	for j0 := 0; j0 < n; j0 += applySlab {
		nc := min(applySlab, n-j0)
		cs2 := c2[j0*ldc2:]
		if b.ts {
			for j := 0; j < nc; j++ {
				copy(w[j*k:j*k+k], c1[(j0+j)*ldc1:])
			}
		} else {
			clear(w[:k*nc])
		}
		pk.GemmPackedA(k, nc, rows, b.vt, cs2, ldc2, w, k, scratch)
		if b.ts {
			pk.GemmPackedA(k, nc, k, top, w, k, c1[j0*ldc1:], ldc1, scratch)
		}
		pk.GemmPackedA(rows, nc, k, body, w, k, cs2, ldc2, scratch)
	}
}

// right applies from the right through the identity C·op(H) = (op(H)ᵀ·Cᵀ)ᵀ:
// the m rows of C are transposed into scratch, run through the Left engine
// with the opposite form, and transposed back. The stage-1 reduction is the
// only caller (two tiles per TS reflector against its O(nt) Left updates), so
// the two tile-sized copies are noise and the Right side needs no operands of
// its own.
func (b *Block) right(trans blas.Transpose, m int, c1 []float64, ldc1 int, c2 []float64, ldc2 int, work []float64) {
	rows, k := b.rows, b.k
	if rows == 0 || k == 0 || m == 0 {
		return
	}
	flip := blas.Trans
	if trans == blas.Trans {
		flip = blas.NoTrans
	}
	var x1 []float64
	if b.ts {
		x1, work = work[:k*m], work[k*m:]
		transposeInto(c1, m, k, ldc1, x1, k)
	}
	x2, work := work[:rows*m], work[rows*m:]
	transposeInto(c2, m, rows, ldc2, x2, rows)
	b.left(flip, m, x1, k, x2, rows, work)
	if b.ts {
		transposeInto(x1, k, m, k, c1, ldc1)
	}
	transposeInto(x2, rows, m, rows, c2, ldc2)
}

// transposeInto writes dst := srcᵀ for the r×c column-major src.
func transposeInto(src []float64, r, c, lds int, dst []float64, ldd int) {
	for j := 0; j < c; j++ {
		col := src[j*lds : j*lds+r]
		for i, v := range col {
			dst[j+i*ldd] = v
		}
	}
}
