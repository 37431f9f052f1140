package work

import (
	"testing"
	"unsafe"
)

func TestFloatsReuseAndZeroing(t *testing.T) {
	a := NewArena()
	b1 := a.Floats("k", 10, true)
	for i := range b1 {
		if b1[i] != 0 {
			t.Fatal("fresh buffer not zeroed")
		}
		b1[i] = 1
	}
	b2 := a.Floats("k", 8, false)
	if &b1[0] != &b2[0] {
		t.Fatal("smaller request did not reuse the buffer")
	}
	if b2[0] != 1 {
		t.Fatal("zero=false cleared the buffer")
	}
	b3 := a.Floats("k", 8, true)
	if b3[0] != 0 {
		t.Fatal("zero=true did not clear the buffer")
	}
	b4 := a.Floats("k", 20, false)
	if len(b4) != 20 {
		t.Fatal("grow failed")
	}
}

func TestNilArena(t *testing.T) {
	var a *Arena
	if got := a.Floats("k", 5, true); len(got) != 5 {
		t.Fatal("nil arena Floats")
	}
	if d := a.Dense("k", 3, 4, true); d.Rows != 3 || d.Cols != 4 {
		t.Fatal("nil arena Dense")
	}
	if b := a.Band("k", 6, 2); b.N != 6 || b.KD != 2 || b.LDA != 3 {
		t.Fatal("nil arena Band")
	}
	if v := Value[int](a, "k"); v == nil || *v != 0 {
		t.Fatal("nil arena Value")
	}
}

func TestDenseHeaderReuse(t *testing.T) {
	a := NewArena()
	d1 := a.Dense("k", 4, 4, true)
	d1.Data[0] = 7
	d2 := a.Dense("k", 4, 4, false)
	if d1 != d2 {
		t.Fatal("Dense header not retained")
	}
	if d2.Data[0] != 7 {
		t.Fatal("Dense backing not retained")
	}
	d3 := a.Dense("k", 2, 3, true)
	if d3 != d1 || d3.Rows != 2 || d3.Cols != 3 || d3.Stride != 2 {
		t.Fatal("Dense reshape broken")
	}
}

func TestBandHeaderReuse(t *testing.T) {
	a := NewArena()
	b1 := a.Band("k", 8, 3)
	if b1.LDA != 4 || len(b1.Data) != 4*8 {
		t.Fatalf("band layout: LDA=%d len=%d", b1.LDA, len(b1.Data))
	}
	b1.Data[0] = 5
	b2 := a.Band("k", 8, 3)
	if b1 != b2 {
		t.Fatal("Band header not retained")
	}
	if b2.Data[0] != 0 {
		t.Fatal("Band not cleared on reuse")
	}
	if b3 := a.Band("k", 4, 9); b3.KD != 3 {
		t.Fatal("bandwidth not clamped to n-1")
	}
}

func TestWorkerSlabs(t *testing.T) {
	a := NewArena()
	s := a.WorkerSlabs("ws", 3, 10)
	for w := 0; w < 3; w++ {
		buf := s.For(w)
		if len(buf) != 10 {
			t.Fatalf("worker %d: len %d", w, len(buf))
		}
		for i := range buf {
			buf[i] = float64(w)
		}
	}
	// Disjointness: each worker's writes survived the others'.
	for w := 0; w < 3; w++ {
		for i, v := range s.For(w) {
			if v != float64(w) {
				t.Fatalf("worker %d elem %d overwritten: %g", w, i, v)
			}
		}
	}
	// Cache-line alignment: strides are multiples of 8 float64s (64 bytes),
	// so adjacent workers never share a line.
	if off := &s.For(1)[0]; (uintptr(unsafe.Pointer(off))-uintptr(unsafe.Pointer(&s.For(0)[0])))%(8*8) != 0 {
		t.Fatal("worker stride not cache-line aligned")
	}
	// Steady state: a same-shape request reuses the retained slab.
	s2 := a.WorkerSlabs("ws", 3, 10)
	if &s2.For(0)[0] != &s.For(0)[0] {
		t.Fatal("slab not retained across requests")
	}
	// Appending to one worker's slice must not bleed into the next worker
	// (full-slice-expression cap).
	b0 := s.For(0)
	b0 = append(b0, 99)
	if s.For(1)[0] == 99 {
		t.Fatal("append crossed into the next worker's slab")
	}
	// Zero-size request still hands out distinct (empty) slots.
	z := a.WorkerSlabs("z", 2, 0)
	if len(z.For(0)) != 0 || len(z.For(1)) != 0 {
		t.Fatal("zero-size slabs not empty")
	}
	// Nil arena allocates fresh but keeps the same layout guarantees.
	var nilA *Arena
	ns := nilA.WorkerSlabs("x", 2, 5)
	ns.For(0)[4] = 1
	if ns.For(1)[4] == 1 {
		t.Fatal("nil-arena slabs alias")
	}
}

func TestPool(t *testing.T) {
	p := NewPool()
	a := p.Get(64)
	if a == nil {
		t.Fatal("pool returned nil arena")
	}
	a.Floats("k", 100, false)
	p.Put(a)
	if p.Get(64) != a {
		t.Fatal("same-size Get did not recycle the arena")
	}
	p.Put(a)
	// A nil pool degrades to nil arenas.
	var np *Pool
	if np.Get(64) != nil {
		t.Fatal("nil pool Get")
	}
	np.Put(nil)
}

func TestPoolSizeClasses(t *testing.T) {
	p := NewPool()
	small := p.Get(64)
	big := p.Get(1024)
	small.Floats("k", 64*64, false)
	big.Floats("k", 1024*1024, false)
	p.Put(small)
	p.Put(big)
	// A small request prefers the small arena even though the big one was
	// pooled more recently.
	if got := p.Get(64); got != small {
		t.Fatal("size-keyed Get did not prefer the matching class")
	}
	if got := p.Get(1024); got != big {
		t.Fatal("big arena lost")
	}
	// With its class empty, any arena is better than none.
	p.Put(big)
	if got := p.Get(64); got != big {
		t.Fatal("cross-class fallback failed")
	}
}

func TestPoolBudget(t *testing.T) {
	p := NewPool()
	p.SetBudget(1000 * 8)
	a := p.Get(8)
	a.Floats("k", 600, false)
	b := p.Get(8)
	b.Floats("k", 600, false)
	p.Put(a)
	if got := p.retained; got != 600*8 {
		t.Fatalf("retained = %d, want %d", got, 600*8)
	}
	// b would push retained past the budget: dropped, not pooled.
	p.Put(b)
	if got := p.retained; got != 600*8 {
		t.Fatalf("over-budget Put was retained: %d bytes", got)
	}
	if got := p.Get(8); got != a {
		t.Fatal("surviving arena not recycled")
	}
	if p.retained != 0 {
		t.Fatal("retained not released on Get")
	}
}

func TestArenaBytes(t *testing.T) {
	a := NewArena()
	if a.Bytes() != 0 {
		t.Fatal("empty arena has nonzero footprint")
	}
	a.Floats("f", 100, false)
	a.WorkerSlabs("w", 2, 50) // two 50-float slabs at a 56-float (cache-line) stride
	want := int64(100+2*56) * 8
	if got := a.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	// Opaque values are counted only through WorkspaceSized.
	*Value[int](a, "v") = 42
	if got := a.Bytes(); got != want {
		t.Fatalf("non-sized value changed footprint: %d", got)
	}
	*Value[sizedVal](a, "sized") = 64
	if got := a.Bytes(); got != want+64 {
		t.Fatalf("WorkspaceSized not counted: %d, want %d", got, want+64)
	}
	if (*Arena)(nil).Bytes() != 0 {
		t.Fatal("nil arena Bytes")
	}
}

type sizedVal int64

func (s sizedVal) WorkspaceBytes() int64 { return int64(s) }

func TestTilesAndValue(t *testing.T) {
	a := NewArena()
	tm := a.Tiles("k", 16, 4)
	if a.Tiles("k", 16, 4) != tm {
		t.Fatal("tile matrix not retained")
	}
	tile := tm.Tile(0, 0)
	if tm = a.Tiles("k", 16, 8); tm.NB != 8 || &tm.Tile(0, 0)[0] == &tile[0] {
		t.Fatal("dimension change must reallocate")
	}
	*Value[int](a, "v") = 42
	if *Value[int](a, "v") != 42 {
		t.Fatal("Value roundtrip")
	}
	if *Value[float64](a, "v") != 0 {
		t.Fatal("Value of another type must start from zero")
	}
}
