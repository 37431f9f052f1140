package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseAtSetView(t *testing.T) {
	m := NewDense(4, 5)
	m.Set(2, 3, 7)
	if m.At(2, 3) != 7 {
		t.Fatal("At/Set mismatch")
	}
	v := m.View(1, 2, 3, 3)
	if v.At(1, 1) != 7 {
		t.Fatalf("view At = %v, want 7", v.At(1, 1))
	}
	v.Set(0, 0, -1)
	if m.At(1, 2) != -1 {
		t.Fatal("view does not alias parent")
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 5, 4)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
	if c.Stride != c.Rows {
		t.Fatal("Clone is not compact")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 6, 3)
	tt := m.Transpose().Transpose()
	if !m.Equalish(tt, 0) {
		t.Fatal("transpose twice != identity")
	}
}

func TestSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randDense(rng, 5, 5)
	m.Symmetrize()
	if !m.IsSymmetric(0) {
		t.Fatal("Symmetrize did not produce a symmetric matrix")
	}
}

func TestFrobeniusNormScaled(t *testing.T) {
	m := NewDense(2, 1)
	m.Set(0, 0, 3e200)
	m.Set(1, 0, 4e200)
	if got := m.FrobeniusNorm(); math.Abs(got-5e200)/5e200 > 1e-12 {
		t.Fatalf("FrobeniusNorm = %g, want 5e200", got)
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestSymBandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, kd int }{{1, 0}, {5, 0}, {5, 1}, {8, 3}, {9, 8}, {6, 10}} {
		d := randDense(rng, tc.n, tc.n)
		d.Symmetrize()
		// Zero outside the band so extraction is lossless.
		kd := tc.kd
		if kd >= tc.n {
			kd = tc.n - 1
		}
		for j := 0; j < tc.n; j++ {
			for i := 0; i < tc.n; i++ {
				if abs(i-j) > kd {
					d.Set(i, j, 0)
				}
			}
		}
		b := SymBandFromDense(d, tc.kd)
		back := b.ToDense()
		if !d.Equalish(back, 0) {
			t.Fatalf("band round trip failed for n=%d kd=%d", tc.n, tc.kd)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSymBandAtSymmetry(t *testing.T) {
	b := NewSymBand(6, 2)
	b.Set(3, 1, 5)
	if b.At(1, 3) != 5 || b.At(3, 1) != 5 {
		t.Fatal("SymBand.At symmetry broken")
	}
	if b.At(0, 5) != 0 {
		t.Fatal("outside band should read 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set outside band should panic")
		}
	}()
	b.Set(5, 0, 1)
}

func TestTridiagonalRoundTrip(t *testing.T) {
	tr := NewTridiagonal(5)
	for i := range tr.D {
		tr.D[i] = float64(i + 1)
	}
	for i := range tr.E {
		tr.E[i] = -float64(i + 1)
	}
	d := tr.ToDense()
	if !d.IsSymmetric(0) {
		t.Fatal("tridiagonal ToDense not symmetric")
	}
	b := SymBandFromDense(d, 1)
	tr2 := TridiagonalFromBand(b)
	for i := range tr.D {
		if tr.D[i] != tr2.D[i] {
			t.Fatal("tridiagonal D round trip failed")
		}
	}
	for i := range tr.E {
		if tr.E[i] != tr2.E[i] {
			t.Fatal("tridiagonal E round trip failed")
		}
	}
}

func TestDTLRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		nb := 1 + rng.Intn(12)
		d := randDense(rng, n, n)
		tm := NewTileMatrix(n, nb)
		tm.FromLapack(d)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if tm.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTileMatrixAtSetMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, nb := 13, 4 // non-divisible: exercises edge tiles
	d := randDense(rng, n, n)
	tm := NewTileMatrix(n, nb)
	tm.FromLapack(d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if tm.At(i, j) != d.At(i, j) {
				t.Fatalf("tile At(%d,%d) mismatch", i, j)
			}
		}
	}
	tm.Set(12, 12, 42)
	if tm.At(12, 12) != 42 {
		t.Fatal("tile Set failed on edge tile")
	}
}

func TestTileEdgeSizes(t *testing.T) {
	tm := NewTileMatrix(10, 4)
	if tm.NT != 3 {
		t.Fatalf("NT = %d, want 3", tm.NT)
	}
	if tm.TileRows(0) != 4 || tm.TileRows(2) != 2 {
		t.Fatalf("tile rows: %d, %d", tm.TileRows(0), tm.TileRows(2))
	}
	if len(tm.Tile(2, 2)) != 4 {
		t.Fatalf("corner tile len = %d, want 4", len(tm.Tile(2, 2)))
	}
}

func TestTileIDUnique(t *testing.T) {
	tm := NewTileMatrix(12, 4)
	seen := map[int]bool{}
	for i := 0; i < tm.NT; i++ {
		for j := 0; j < tm.NT; j++ {
			id := tm.TileID(i, j)
			if seen[id] {
				t.Fatalf("duplicate tile ID %d", id)
			}
			seen[id] = true
		}
	}
}

func TestDenseAuxiliaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randDense(rng, 4, 3)
	// CopyFrom.
	c := NewDense(4, 3)
	c.CopyFrom(m)
	if !c.Equalish(m, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	// MaxAbs.
	m.Set(2, 1, -99)
	if m.MaxAbs() != 99 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	// String renders each element.
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
	// NewDenseFrom wraps without copying.
	data := make([]float64, 12)
	w := NewDenseFrom(4, 3, 4, data)
	w.Set(1, 1, 5)
	if data[1+4] != 5 {
		t.Fatal("NewDenseFrom does not alias")
	}
	// Shape mismatch panics.
	mustPanic(t, func() { c.CopyFrom(NewDense(2, 2)) })
	mustPanic(t, func() { NewDenseFrom(4, 3, 2, data) })
	mustPanic(t, func() { NewDenseFrom(4, 3, 4, data[:5]) })
	mustPanic(t, func() { NewDense(-1, 2) })
	mustPanic(t, func() { m.View(3, 0, 4, 1) })
	mustPanic(t, func() { NewDense(2, 3).Symmetrize() })
	mustPanic(t, func() { m.At(-1, 0) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestBandAuxiliaries(t *testing.T) {
	b := NewSymBand(6, 2)
	b.Set(2, 1, 7)
	c := b.Clone()
	c.Set(2, 1, 8)
	if b.At(2, 1) != 7 {
		t.Fatal("SymBand.Clone shares storage")
	}
	tr := NewTridiagonal(4)
	tr.D[0] = 3
	tc := tr.Clone()
	tc.D[0] = 4
	if tr.D[0] != 3 {
		t.Fatal("Tridiagonal.Clone shares storage")
	}
	// kd clamping for kd ≥ n.
	big := NewSymBand(3, 9)
	if big.KD != 2 {
		t.Fatalf("KD not clamped: %d", big.KD)
	}
	mustPanic(t, func() { NewSymBand(-1, 0) })
	mustPanic(t, func() { b.At(9, 0) })
}
