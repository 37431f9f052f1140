// Package work provides the size-keyed workspace arena that makes the
// solve path reusable: every scratch buffer the pipeline needs — the
// stage-1 tile storage and kernel scratch, the extended workband of the
// bulge chase, the Q₂ reflectors and diamonds, the tridiagonal d/e/work
// arrays, the eigenvector staging matrix and the one-stage working copy of
// A — is obtained from an Arena instead of the garbage collector.
//
// An Arena serves exactly one solve at a time; a Pool hands out Arenas to
// concurrent solves and recycles them, so a long-lived Solver reaches a
// steady state in which repeated solves of the same size perform near-zero
// allocations (the workspace-reuse discipline of PLASMA's runtime that the
// paper's two-stage pipeline is built on).
//
// Ownership rule: buffers returned by an Arena are valid only until the
// Arena is released back to its Pool. Results that outlive the solve
// (eigenvalues, eigenvector matrices handed to the caller) must never be
// arena-backed.
package work

import (
	"sync"

	"repro/internal/matrix"
)

// Key names one workspace slot of an Arena. Each (Key, size) pair maps to
// one retained buffer; requesting a larger size grows the buffer, a smaller
// size reslices it.
type Key string

// The workspace slots used by the solve pipeline.
const (
	Stage1Dense   Key = "stage1.dense"    // one-stage working copy of A
	Stage1Tiles   Key = "stage1.tiles"    // V₁ tile storage (the reduced A)
	Stage1Scratch Key = "stage1.scratch"  // per-worker tile-kernel scratch
	Stage1Packed  Key = "stage1.packed"   // prepared (packed) panel reflectors
	Stage2Band    Key = "stage2.band"     // extracted symmetric band matrix
	Stage2Work    Key = "stage2.workband" // extended band (bulge) storage
	Stage2Slab    Key = "stage2.slab"     // Q₂ reflector essentials (vectors only)
	Stage2Scratch Key = "stage2.scratch"  // bulge-kernel scratch: each stream's u = [1; v] and product, the handoff ring
	Stage2Out     Key = "stage2.out"      // chaser state with its outputs (Result + Tridiagonal)
	Stage2OutD    Key = "stage2.out.d"    // tridiagonal output diagonal
	Stage2OutE    Key = "stage2.out.e"    // tridiagonal output off-diagonal
	Stage1Factor  Key = "stage1.factor"   // band factorization header + reflector lists
	TridiagD      Key = "tridiag.d"       // diagonal scratch copy
	TridiagE      Key = "tridiag.e"       // off-diagonal scratch copy
	BacktransSlab Key = "backtrans.slab"  // prepared (packed) Q₂ diamonds
	BacktransPlan Key = "backtrans.plan"  // Q₂ plan: block list + diamond staging
	FusedApply    Key = "backtrans.fused" // fused Q₂+Q₁ column-block scratch
	TridiagWork   Key = "tridiag.work"    // tridiag.WorkSet: per-worker solver scratch pools
	VectorStage   Key = "vectors.stage"   // eigenvector staging matrix
	OneStagePanel Key = "onestage.panel"  // DLATRD W panel
	OneStageWork  Key = "onestage.work"   // ORMTR work + T factor
)

// Arena is a per-solve workspace. It is NOT safe for concurrent use by
// multiple solves; the only concurrency it supports is multiple scheduler
// workers of one solve writing disjoint ranges of buffers taken beforehand
// (their own WorkerSlabs slices, the fixed offsets of a prepared-reflector
// slot). A nil *Arena is valid everywhere and simply allocates fresh
// buffers, so one-shot code paths need no conditionals.
//
// With the phase-plan driver a "solve" may span dormant time: a
// core.SolveState pins its arena from NewSolveState until the plan
// completes or is abandoned, including any suspension between phases. An
// arena handed to a SolveState must therefore not return to a Pool or serve
// another solve until that state is finished — suspending a state suspends
// the arena with it.
type Arena struct {
	floats map[Key][]float64
	values map[Key]any

	// Pool bookkeeping: the size class of the solve the arena last served
	// and, while idle under a budgeted pool, its counted footprint.
	class       int
	pooledBytes int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		floats: make(map[Key][]float64),
		values: make(map[Key]any),
	}
}

// Floats returns a float64 buffer of length n for the slot. With zero set
// the buffer is cleared; otherwise its contents are unspecified and the
// caller must overwrite every element it reads.
func (a *Arena) Floats(k Key, n int, zero bool) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	buf := a.floats[k]
	if cap(buf) < n {
		buf = make([]float64, n)
		a.floats[k] = buf
		return buf
	}
	buf = buf[:n]
	if zero {
		clear(buf)
	}
	return buf
}

// Dense returns an r×c column-major matrix (Stride == r) backed by the
// slot's buffer. Both the header and the backing array are retained, so a
// steady-state request costs zero allocations.
func (a *Arena) Dense(k Key, r, c int, zero bool) *matrix.Dense {
	d := Value[matrix.Dense](a, k)
	d.Rows, d.Cols, d.Stride, d.Data = r, c, max(1, r), a.Floats(k, max(1, r)*c, zero)
	return d
}

// Band returns an order-n symmetric band matrix with bandwidth kd backed by
// the slot's buffer, cleared (band extraction writes sparsely).
func (a *Arena) Band(k Key, n, kd int) *matrix.SymBand {
	if kd >= n && n > 0 {
		kd = n - 1
	}
	b := Value[matrix.SymBand](a, k)
	b.N, b.KD, b.LDA, b.Data = n, kd, kd+1, a.Floats(k, (kd+1)*n, true)
	return b
}

// slabAlign is the worker-slab stride granularity in float64s (64 bytes =
// one cache line), so adjacent workers never write the same line.
const slabAlign = 8

// WorkerSlabs is the per-worker scratch of one parallel phase: equal-size
// slices carved at cache-line-aligned strides out of a single retained slab,
// indexed by the worker id that sched.Task.Run receives. Obtaining the slabs
// happens on the submitting goroutine; each worker then touches only its own
// slice, so the phase performs no per-task allocation and no false sharing.
type WorkerSlabs struct {
	buf    []float64
	stride int
	size   int
}

// For returns worker w's buffer (length = the size the slabs were built
// with). Contents are unspecified.
func (s WorkerSlabs) For(w int) []float64 {
	off := w * s.stride
	return s.buf[off : off+s.size : off+s.stride]
}

// WorkerSlabs returns per-worker buffers of the given size for the slot,
// backed by one slab (a single allocation even on first use; zero in steady
// state). A nil arena allocates a fresh slab.
func (a *Arena) WorkerSlabs(k Key, workers, size int) WorkerSlabs {
	stride := SlabsLen(1, size)
	return WorkerSlabs{buf: a.Floats(k, workers*stride, false), stride: stride, size: size}
}

// SlabsLen is the length of the slab WorkerSlabs carves for the given workers
// and size: a stride of size rounded up to whole cache lines, at least one.
func SlabsLen(workers, size int) int {
	return workers * max(slabAlign, (size+slabAlign-1)&^(slabAlign-1))
}

// Tiles returns a retained n×n tile matrix with tile size nb. Contents are
// unspecified; the caller is expected to overwrite every tile (the DTL's
// FromLapack does). A dimension change reallocates the tiles.
func (a *Arena) Tiles(k Key, n, nb int) *matrix.TileMatrix {
	tm := Value[matrix.TileMatrix](a, k)
	if tm.N != n || tm.NB != nb {
		*tm = *matrix.NewTileMatrix(n, nb)
	}
	return tm
}

// Value returns the slot's value of type T, new and zero on first use (and
// always on a nil arena). Stage packages keep their typed caches there, the
// chaser and its outputs for one, without this package importing them.
func Value[T any](a *Arena, k Key) *T {
	if a == nil {
		return new(T)
	}
	v, ok := a.values[k].(*T)
	if !ok {
		v = new(T)
		a.values[k] = v
	}
	return v
}

// WorkspaceSized is implemented by values cached on an Arena (Value, Tiles)
// that want their retained storage counted by Arena.Bytes. Values
// that do not implement it are counted as zero — the budget is a bound on
// the dominant buffers, not an exact heap audit.
type WorkspaceSized interface {
	WorkspaceBytes() int64
}

// Bytes reports the arena's retained workspace footprint: the capacity of
// every float slot (worker slabs included), plus whatever cached opaque
// values report through WorkspaceSized. Dense/band headers alias the float
// slots and are not double-counted.
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	var b int64
	for _, v := range a.floats {
		b += int64(cap(v)) * 8
	}
	for _, v := range a.values {
		if sz, ok := v.(WorkspaceSized); ok {
			b += sz.WorkspaceBytes()
		}
	}
	return b
}

// sizeClass buckets a problem order n for the pool's free lists: arenas are
// recycled to solves of similar size, so a batch mixing n=64 and n=1024
// problems does not hand a 24 MB arena to a 32 KB solve (nor grow every
// pooled arena to the largest size seen). Classes are powers of two.
func sizeClass(n int) int {
	if n <= 0 {
		return 0
	}
	c := 0
	for (1 << c) < n {
		c++
	}
	return c
}

// Pool is a concurrency-safe pool of Arenas, size-keyed: Get takes the order
// of the problem the arena will serve and prefers an arena last used for a
// similar size (exact class first, then the next larger classes, then any).
// An optional budget bounds the total bytes retained by idle arenas: a Put
// that would exceed it drops the arena to the garbage collector instead.
type Pool struct {
	mu       sync.Mutex
	budget   int64 // 0 = unlimited
	retained int64 // bytes held by idle arenas (tracked only when budget > 0)
	buckets  map[int][]*Arena
}

// NewPool returns an empty pool with no budget.
func NewPool() *Pool {
	return &Pool{buckets: make(map[int][]*Arena)}
}

// SetBudget bounds the bytes retained by idle arenas (0 = unlimited). It
// only affects future Puts; arenas already pooled stay.
func (pl *Pool) SetBudget(bytes int64) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	pl.budget = bytes
	pl.mu.Unlock()
}

// Get takes an arena suitable for an order-n solve from the pool, or returns
// a fresh one. The class preference is best-effort: any arena works for any
// size (buffers grow on demand).
func (pl *Pool) Get(n int) *Arena {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	class := sizeClass(n)
	take := func(c int) *Arena {
		bucket := pl.buckets[c]
		if len(bucket) == 0 {
			return nil
		}
		a := bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		pl.buckets[c] = bucket[:len(bucket)-1]
		if pl.budget > 0 {
			pl.retained -= a.pooledBytes
		}
		a.pooledBytes = 0
		a.class = sizeClass(n)
		return a
	}
	// Exact class, then the next larger ones (no growth needed), then any.
	for c := class; c <= class+2; c++ {
		if a := take(c); a != nil {
			return a
		}
	}
	for c := range pl.buckets {
		if a := take(c); a != nil {
			return a
		}
	}
	a := NewArena()
	a.class = class
	return a
}

// Put returns an arena to the pool. The caller must not touch any buffer
// obtained from it afterwards. With a budget set, an arena that would push
// retained bytes past it is dropped instead of pooled.
func (pl *Pool) Put(a *Arena) {
	if pl == nil || a == nil {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.budget > 0 {
		b := a.Bytes()
		if pl.retained+b > pl.budget {
			return // drop: the GC reclaims it
		}
		a.pooledBytes = b
		pl.retained += b
	}
	pl.buckets[a.class] = append(pl.buckets[a.class], a)
}
