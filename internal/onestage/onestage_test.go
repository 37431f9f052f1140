package onestage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
	"repro/internal/tridiag"
	"repro/internal/work"
)

// checkTol bounds every testmat score in this file, in units of n·ε·‖A‖.
const checkTol = 50

// reconstruct computes Q·T·Qᵀ from the packed Sytrd output and compares it
// to the original matrix.
func reconstructError(t *testing.T, orig *matrix.Dense, a *matrix.Dense, d, e, tau []float64, nb int) float64 {
	t.Helper()
	n := orig.Rows
	tm := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		tm.Set(i, i, d[i])
		if i+1 < n {
			tm.Set(i+1, i, e[i])
			tm.Set(i, i+1, e[i])
		}
	}
	// R = Q·T·Qᵀ: apply Qᵀ from the right via transposes — use ApplyQ on
	// columns: first W = Q·T, then R = (Q·Wᵀ)ᵀ.
	w := tm.Clone()
	ApplyQ(a, tau, blas.NoTrans, w, nb, nil, nil)
	wt := w.Transpose()
	ApplyQ(a, tau, blas.NoTrans, wt, nb, nil, nil)
	r := wt.Transpose()
	diff := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if v := math.Abs(r.At(i, j) - orig.At(i, j)); v > diff {
				diff = v
			}
		}
	}
	return diff / (orig.FrobeniusNorm() + 1)
}

func TestSytrdReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, nb int }{{1, 4}, {2, 4}, {3, 2}, {8, 4}, {13, 4}, {32, 8}, {50, 16}, {64, 64}, {40, 1}} {
		orig := testmat.RandomSym(rng, tc.n)
		a := orig.Clone()
		d, e, tau := Sytrd(a, tc.nb, nil, nil)
		if err := reconstructError(t, orig, a, d, e, tau, tc.nb); err > 1e-13*float64(tc.n) {
			t.Fatalf("n=%d nb=%d: reconstruction error %g", tc.n, tc.nb, err)
		}
	}
}

func TestSytrdBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 33
	orig := testmat.RandomSym(rng, n)
	a1 := orig.Clone()
	d1, e1, _ := Sytrd(a1, 1, nil, nil)
	a2 := orig.Clone()
	d2, e2, _ := Sytrd(a2, 8, nil, nil)
	for i := 0; i < n; i++ {
		if math.Abs(d1[i]-d2[i]) > 1e-11 {
			t.Fatalf("d[%d] differs: %g vs %g", i, d1[i], d2[i])
		}
	}
	for i := 0; i < n-1; i++ {
		if math.Abs(math.Abs(e1[i])-math.Abs(e2[i])) > 1e-11 {
			t.Fatalf("|e[%d]| differs: %g vs %g", i, e1[i], e2[i])
		}
	}
}

func TestSytrdEigenvaluesPreserved(t *testing.T) {
	// Eigenvalues of T must equal eigenvalues of A (planted spectrum).
	rng := rand.New(rand.NewSource(3))
	n := 48
	a := testmat.RandomSym(rng, n)
	orig := a.Clone()
	// Reference spectrum via Jacobi-free approach: reduce with nb=1 (already
	// tested against reconstruction) is circular; instead compare Sytrd+
	// Steqr spectrum against the trace/Frobenius invariants of A.
	d, e, _ := Sytrd(a, 8, nil, nil)
	if err := tridiag.Steqr(d, e, nil, tridiag.NewWorkSet(1).Seq()); err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check(orig, d, nil, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestBuildQOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 9, 31} {
		a := testmat.RandomSym(rng, n)
		_, _, tau := Sytrd(a, 8, nil, nil)
		q := matrix.Eye(n)
		ApplyQ(a, tau, blas.NoTrans, q, 8, nil, nil)
		if o := testmat.OrthoError(q); !(o <= checkTol) {
			t.Fatalf("n=%d: ‖QᵀQ − I‖ is %.3g n·ε", n, o)
		}
	}
}

func TestApplyQTransIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 21, 7
	a := testmat.RandomSym(rng, n)
	_, _, tau := Sytrd(a, 4, nil, nil)
	c := matrix.NewDense(n, m)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	got := c.Clone()
	ApplyQ(a, tau, blas.NoTrans, got, 4, nil, nil)
	ApplyQ(a, tau, blas.Trans, got, 4, nil, nil)
	if !got.Equalish(c, 1e-12) {
		t.Fatal("Qᵀ·Q·C != C")
	}
}

// TestApplyQWideMatchesSequential covers the column halves of a wide C:
// ApplyQJob on jobs of 1, 2 and 4 workers, just below, at and above the
// 2·NC columns from which it splits, and once on a two-worker job whose
// workers another job holds (so the caller runs both halves), gives the bits
// of the nil-job ApplyQ.
func TestApplyQWideMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 19
	a := testmat.RandomSym(rng, n)
	_, _, tau := Sytrd(a, 4, nil, nil)
	check := func(what string, m int, trans blas.Transpose, job *sched.Job) {
		t.Helper()
		c := matrix.NewDense(n, m)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		want := c.Clone()
		ApplyQ(a, tau, trans, want, 4, nil, nil)
		ApplyQJob(a, tau, trans, c, 4, job, nil, nil)
		if err := job.Err(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.Data, want.Data) {
			t.Fatalf("%s m=%d trans=%v: ApplyQJob differs from ApplyQ", what, m, trans)
		}
	}
	for _, w := range []int{1, 2, 4} {
		s := sched.New(w)
		for _, m := range []int{2*blas.DefaultNC - 1, 2 * blas.DefaultNC, 2*blas.DefaultNC + 5} {
			for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				check(fmt.Sprintf("W=%d", w), m, trans, s.NewJob(nil))
			}
		}
		s.Shutdown()
	}

	s := sched.New(2)
	defer s.Shutdown()
	gate := make(chan struct{})
	hold := s.NewJob(nil)
	for range 2 {
		hold.Submit(sched.Task{Priority: math.MaxInt, Run: func(int) { <-gate }})
	}
	check("workers held", 2*blas.DefaultNC, blas.NoTrans, s.NewJob(nil))
	close(gate)
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyQJobAllocs: the back-transformation allocates nothing on a nil
// job once the arena is warm, and on two workers a fixed number of times per
// call, however many panels it applies: the panels are walked by index and
// the halves' closures are made once per call.
func TestApplyQJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	s := sched.New(2)
	defer s.Shutdown()
	ws := work.NewArena()
	allocs := func(n int, parallel bool) int64 {
		a := testmat.RandomSym(rng, n)
		_, _, tau := Sytrd(a, 0, ws, nil)
		c := matrix.NewDense(n, 2*blas.DefaultNC) // wide enough to split
		return mallocsPerRun(func() {
			var job *sched.Job
			if parallel {
				job = s.NewJob(nil)
			}
			ApplyQJob(a, tau, blas.NoTrans, c, 0, job, ws, nil)
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := allocs(256, false); got != 0 {
		t.Errorf("nil job: %d allocations per call, want 0", got)
	}
	small, large := allocs(512, true), allocs(1024, true)
	t.Logf("W = 2: %d allocations at n = 512, %d at n = 1024", small, large)
	if large > small {
		t.Errorf("W = 2: %d allocations at n = 1024, more than the %d at n = 512", large, small)
	}
}

func TestFullEigendecompositionResidual(t *testing.T) {
	// End-to-end one-stage: A z = λ z for every eigenpair.
	rng := rand.New(rand.NewSource(6))
	n := 40
	orig := testmat.RandomSym(rng, n)
	a := orig.Clone()
	d, e, tau := Sytrd(a, 8, nil, nil)
	z := matrix.Eye(n)
	if err := tridiag.Steqr(d, e, z, tridiag.NewWorkSet(1).Seq()); err != nil {
		t.Fatal(err)
	}
	// Z = Q·E.
	ApplyQ(a, tau, blas.NoTrans, z, 8, nil, nil)
	if _, err := testmat.Check(orig, d, z, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestFlopAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	a := testmat.RandomSym(rng, n)
	col := trace.New()
	Sytrd(a, 8, nil, col)
	// The reduction is 4/3·n³ + O(n²) flops; the accounting should land in
	// the right ballpark (within 2× on either side).
	want := 4.0 / 3.0 * float64(n) * float64(n) * float64(n)
	got := float64(col.TotalFlops())
	if got < want/2 || got > want*2 {
		t.Fatalf("flop count %g not within 2x of 4/3 n³ = %g", got, want)
	}
	// The symv share must dominate gemv in the one-stage reduction.
	if col.Flops(trace.KSymv) < col.Flops(trace.KGemm) {
		t.Fatal("one-stage reduction should be symv-dominated")
	}
}
