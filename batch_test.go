package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tridiag"
)

// diagMatrix builds a diagonal matrix from vals. Its spectrum is vals sorted
// ascending, and — crucially for the convergence-seam tests — the implicit
// QL/QR solvers converge on it with a zero iteration budget (every
// off-diagonal is already negligible).
func diagMatrix(vals []float64) *Matrix {
	m := NewMatrix(len(vals))
	for i, v := range vals {
		m.Set(i, i, v)
	}
	return m
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// requireBitwise fails unless the batch result exactly matches a solo solve.
func requireBitwise(t *testing.T, label string, got BatchResult, wantVals []float64, wantVecs *Matrix) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: unexpected error %v", label, got.Err)
	}
	if !sameFloats(got.Values, wantVals) {
		t.Fatalf("%s: values differ from solo solve", label)
	}
	if (got.Vectors == nil) != (wantVecs == nil) {
		t.Fatalf("%s: vectors presence mismatch", label)
	}
	if wantVecs != nil && !sameFloats(got.Vectors.data, wantVecs.data) {
		t.Fatalf("%s: vectors differ from solo solve", label)
	}
}

// soloReference solves every item alone on a sequential Solver with the same
// numerical options, giving the bitwise ground truth a batch must reproduce
// at any worker count.
func soloReference(t *testing.T, opts Options, items []BatchItem) []BatchResult {
	t.Helper()
	opts.Workers = 0
	ref := NewSolver(&opts)
	defer ref.Close()
	return soloOn(t, ref, items)
}

// soloOn solves every item alone, one after the other, on the given Solver
// (a Dst item into a fresh matrix, so the batch's own Dst is left alone).
func soloOn(t *testing.T, s *Solver, items []BatchItem) []BatchResult {
	t.Helper()
	out := make([]BatchResult, len(items))
	for i, it := range items {
		var res *Result
		var err error
		if it.ValuesOnly {
			var vals []float64
			if it.IL != 0 || it.IU != 0 {
				vals, err = s.EigValuesRange(it.A, it.IL, it.IU)
			} else {
				vals, err = s.EigValues(it.A)
			}
			res = &Result{Values: vals}
		} else if it.IL != 0 || it.IU != 0 {
			res, err = s.EigRange(it.A, it.IL, it.IU)
		} else {
			res, err = s.Eig(it.A)
		}
		if err != nil {
			t.Fatalf("solo reference item %d: %v", i, err)
		}
		out[i] = BatchResult{Values: res.Values, Vectors: res.Vectors}
	}
	return out
}

// mixedItems is the mixed batch the equivalence tests sweep: assorted sizes,
// a values-only item, and a range item.
func mixedItems(rng *rand.Rand) []BatchItem {
	return []BatchItem{
		{A: randSymMatrix(rng, 48)},
		{A: randSymMatrix(rng, 32)},
		{A: randSymMatrix(rng, 64)},
		{A: randSymMatrix(rng, 24), ValuesOnly: true},
		{A: randSymMatrix(rng, 40), IL: 2, IU: 9},
		{A: randSymMatrix(rng, 56)},
	}
}

// TestSolveBatchMatchesSolo checks the core batch guarantee at every worker
// count: a mixed batch solved concurrently (each small item a whole sequential
// solve on its own goroutine) is bitwise identical to solving each item alone
// — on the same Solver and on a sequential one — across item flavors (full,
// values-only, range, in-place Dst). Run under -race by scripts/check.sh.
func TestSolveBatchMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := NewMatrix(40)
	items := append(mixedItems(rng),
		BatchItem{A: randSymMatrix(rng, 96)},
		BatchItem{A: randSymMatrix(rng, 40), Dst: dst})
	want := soloReference(t, Options{}, items)

	for _, workers := range []int{1, 2, 4, 7} {
		s := NewSolver(&Options{Workers: workers})
		results := s.SolveBatch(context.Background(), items)
		if len(results) != len(items) {
			t.Fatalf("got %d results for %d items", len(results), len(items))
		}
		same := soloOn(t, s, items)
		for i, r := range results {
			requireBitwise(t, fmt.Sprintf("workers=%d item %d vs sequential", workers, i), r, want[i].Values, want[i].Vectors)
			requireBitwise(t, fmt.Sprintf("workers=%d item %d vs same Solver", workers, i), r, same[i].Values, same[i].Vectors)
		}
		if results[len(items)-1].Vectors != dst {
			t.Fatal("Dst item did not return the caller's matrix")
		}
		s.Close()
	}
}

// TestSolveBatchSequentialSolver runs a batch on a schedulerless Solver:
// items execute one at a time but the results contract is unchanged.
func TestSolveBatchSequentialSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewSolver(nil)
	defer s.Close()
	a1 := randSymMatrix(rng, 24)
	a2 := randSymMatrix(rng, 40)
	results := s.SolveBatch(context.Background(), []BatchItem{{A: a1}, {A: a2}})
	want1, err := s.Eig(a1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := s.Eig(a2)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, "seq item 1", results[0], want1.Values, want1.Vectors)
	requireBitwise(t, "seq item 2", results[1], want2.Values, want2.Vectors)
}

// TestSolveBatchFanout forces the per-tile fan-out shape (batchFanout below
// the problem sizes: every item's phases expand into their task DAGs on the
// shared scheduler) and checks bitwise identity with solo solves there too.
func TestSolveBatchFanout(t *testing.T) {
	defer func(f int) { batchFanout = f }(batchFanout)
	batchFanout = 1
	rng := rand.New(rand.NewSource(9))
	items := mixedItems(rng)
	want := soloReference(t, Options{}, items)

	for _, workers := range []int{2, 3, 4, 7} {
		s := NewSolver(&Options{Workers: workers})
		for i, r := range s.SolveBatch(context.Background(), items) {
			requireBitwise(t, fmt.Sprintf("workers=%d fanout item %d", workers, i), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestSolveBatchStage2Options checks the batch composes with a parallel
// within-solve pool and another tridiagonal method on both admission shapes
// without perturbing results.
func TestSolveBatchStage2Options(t *testing.T) {
	defer func(f int) { batchFanout = f }(batchFanout)
	rng := rand.New(rand.NewSource(24))
	items := mixedItems(rng)

	for _, tc := range []struct {
		opts   Options
		fanout int
	}{
		{Options{Workers: 4}, batchFanout},
		{Options{Workers: 4}, 1},
		{Options{Workers: 4, Method: BisectionInverseIteration}, batchFanout},
	} {
		opts := tc.opts
		batchFanout = tc.fanout
		want := soloReference(t, opts, items)
		s := NewSolver(&opts)
		results := s.SolveBatch(context.Background(), items)
		for i, r := range results {
			requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestSolveBatchMemoryBudget runs a batch under a tight byte budget: items
// serialize through the admission gate but all still complete.
func TestSolveBatchMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewSolver(&Options{Workers: 4, MemoryBudget: 1 << 20})
	defer s.Close()
	items := make([]BatchItem, 6)
	for i := range items {
		items[i].A = randSymMatrix(rng, 64)
	}
	for i, r := range s.SolveBatch(context.Background(), items) {
		if r.Err != nil {
			t.Fatalf("item %d under budget: %v", i, r.Err)
		}
		if len(r.Values) != 64 {
			t.Fatalf("item %d: %d values", i, len(r.Values))
		}
	}
}

// TestSolveBatchEdgeCases covers the empty batch, the closed solver, and a
// pre-canceled context.
func TestSolveBatchEdgeCases(t *testing.T) {
	if got := NewSolver(nil).SolveBatch(context.Background(), nil); len(got) != 0 {
		t.Fatal("empty batch must return an empty slice")
	}

	s := NewSolver(&Options{Workers: 2})
	s.Close()
	a := diagMatrix([]float64{1, 2})
	for i, r := range s.SolveBatch(context.Background(), []BatchItem{{A: a}, {A: a}}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("closed solver item %d: err=%v, want ErrClosed", i, r.Err)
		}
	}

	s2 := NewSolver(&Options{Workers: 2})
	defer s2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range s2.SolveBatch(ctx, []BatchItem{{A: a}, {A: a}, {A: a}}) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("canceled item %d: err=%v, want context.Canceled", i, r.Err)
		}
	}
	// The solver survives a canceled batch.
	if _, err := s2.Eig(a); err != nil {
		t.Fatalf("solver poisoned by canceled batch: %v", err)
	}
}

// TestBatchIsolationMixed is the concurrency gate (run under -race by
// scripts/check.sh): a mixed-size batch where one item carries a NaN, one is
// forced to fail convergence, one is nil, and one has a bad range. Every
// failure must be a typed, item-local error; the healthy items and every
// subsequent solve on the same Solver must be untouched.
func TestBatchIsolationMixed(t *testing.T) {
	// Zero iteration budget: diagonal inputs still converge (no off-diagonal
	// to annihilate), dense inputs fail — per-item failure injection via the
	// global seam.
	oldQL := tridiag.MaxIterQL
	tridiag.MaxIterQL = 0
	defer func() { tridiag.MaxIterQL = oldQL }()

	rng := rand.New(rand.NewSource(11))
	s := NewSolver(&Options{Workers: 4, Method: QRIteration})
	defer s.Close()

	healthySizes := []int{8, 16, 24, 32, 48}
	items := make([]BatchItem, 0, len(healthySizes)+4)
	wantDiags := make([][]float64, len(healthySizes))
	for i, n := range healthySizes {
		d := make([]float64, n)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		wantDiags[i] = d
		items = append(items, BatchItem{A: diagMatrix(d)})
	}
	nanItem := diagMatrix([]float64{1, 2, 3, 4})
	nanItem.Set(2, 1, math.NaN())
	nanItem.Set(1, 2, math.NaN())
	dense := randSymMatrix(rng, 20)
	items = append(items,
		BatchItem{A: nanItem},
		BatchItem{A: dense}, // fails convergence under the zero budget
		BatchItem{},         // nil matrix
		BatchItem{A: diagMatrix([]float64{1, 2}), IL: 5, IU: 9, Dst: NewMatrix(2)},
	)

	results := s.SolveBatch(context.Background(), items)

	for i := range healthySizes {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("healthy item %d failed: %v", i, r.Err)
		}
		want := append([]float64(nil), wantDiags[i]...)
		for a := range want { // insertion sort; the spectrum is the sorted diagonal
			for b := a; b > 0 && want[b] < want[b-1]; b-- {
				want[b], want[b-1] = want[b-1], want[b]
			}
		}
		for j := range want {
			if math.Abs(r.Values[j]-want[j]) > 1e-12 {
				t.Fatalf("healthy item %d value %d: got %g want %g", i, j, r.Values[j], want[j])
			}
		}
	}

	base := len(healthySizes)
	var nfe *NotFiniteError
	if !errors.As(results[base].Err, &nfe) || !errors.Is(results[base].Err, ErrNotFinite) {
		t.Fatalf("NaN item: err=%v, want *NotFiniteError", results[base].Err)
	}
	if results[base+1].Err != ErrNoConvergence {
		t.Fatalf("forced item: err=%v, want ErrNoConvergence (unwrapped)", results[base+1].Err)
	}
	if results[base+2].Err == nil {
		t.Fatal("nil-matrix item did not error")
	}
	if !errors.Is(results[base+3].Err, ErrInvalidRange) {
		t.Fatalf("bad-range item: err=%v, want ErrInvalidRange", results[base+3].Err)
	}

	// The failed items must not have poisoned the Solver: the dense problem
	// solves fine once the iteration budget is restored.
	tridiag.MaxIterQL = oldQL
	res, err := s.Eig(dense)
	if err != nil {
		t.Fatalf("solver poisoned by failed batch items: %v", err)
	}
	if len(res.Values) != 20 {
		t.Fatalf("post-batch solve: %d values", len(res.Values))
	}
}

// TestNotFiniteError places NaN, +Inf and -Inf at assorted positions and
// checks the typed error for both algorithms.
func TestNotFiniteError(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, alg := range []Algorithm{TwoStage, OneStage} {
		for _, tc := range []struct {
			name string
			v    float64
			i, j int
		}{
			{"NaN-offdiag", math.NaN(), 3, 1},
			{"+Inf-diag", math.Inf(1), 2, 2},
			{"-Inf-corner", math.Inf(-1), 7, 7},
			{"NaN-first", math.NaN(), 0, 0},
		} {
			a := randSymMatrix(rng, 8)
			a.SetSym(tc.i, tc.j, tc.v)
			_, err := Eig(a, &Options{Algorithm: alg})
			var nfe *NotFiniteError
			if !errors.As(err, &nfe) {
				t.Fatalf("alg=%v %s: err=%v, want *NotFiniteError", alg, tc.name, err)
			}
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("alg=%v %s: errors.Is(ErrNotFinite) false", alg, tc.name)
			}
			// The scan is column-major, so the first hit is the smallest
			// (col, row) position among the two symmetric entries.
			if nfe.Row < 0 || nfe.Row >= 8 || nfe.Col < 0 || nfe.Col >= 8 {
				t.Fatalf("alg=%v %s: reported position (%d,%d) out of matrix", alg, tc.name, nfe.Row, nfe.Col)
			}
			if got := a.At(nfe.Row, nfe.Col); got != tc.v && !(math.IsNaN(got) && math.IsNaN(tc.v)) {
				t.Fatalf("alg=%v %s: reported position (%d,%d) holds %v, not the bad value", alg, tc.name, nfe.Row, nfe.Col, got)
			}
		}
	}

	// Larger orders, where the input scan runs in blocks and, with two
	// workers, in two shares: the reported entry is still the first
	// non-finite one in column-major order.
	for _, n := range scanSizes {
		for _, w := range []int{1, 2} {
			for _, tc := range []struct {
				name string
				set  [][2]int // (row, col) positions set to a non-finite value, one-sided
				asym bool     // also break symmetry elsewhere
			}{
				{"upper-only", [][2]int{{n / 3, n - 1}}, false},
				{"upper-only-corner", [][2]int{{0, n - 1}}, false},
				{"several", [][2]int{{n - 1, n - 1}, {n - 2, n / 2}, {n / 2, n - 2}, {n - 1, 1}}, false},
				{"NaN-and-asymmetry", [][2]int{{n - 1, n - 1}}, true},
			} {
				a := randSymMatrix(rng, n)
				first := [2]int{n, n}
				for k, p := range tc.set {
					a.Set(p[0], p[1], []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3])
					if p[1] < first[1] || p[1] == first[1] && p[0] < first[0] {
						first = p
					}
				}
				if tc.asym {
					a.Set(0, n-1, a.At(n-1, 0)+1)
				}
				_, err := Eig(a, &Options{Workers: w})
				var nfe *NotFiniteError
				if !errors.As(err, &nfe) {
					t.Fatalf("n=%d W=%d %s: err=%v, want *NotFiniteError", n, w, tc.name, err)
				}
				if nfe.Row != first[0] || nfe.Col != first[1] {
					t.Fatalf("n=%d W=%d %s: reported (%d,%d), want the first in column-major order (%d,%d)", n, w, tc.name, nfe.Row, nfe.Col, first[0], first[1])
				}
			}
		}
	}
}

// TestOptionsClamp feeds out-of-range option values into every knob that
// used to reach a panic in internal layers (the scheduler rejects widths
// over 64; negative sizes corrupted block-size selection) and expects a
// correct solve instead.
func TestOptionsClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSymMatrix(rng, 24)
	want, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		{Workers: 1000},
		{Workers: -5},
		{NB: -3},
		{MemoryBudget: -1, BatchConcurrency: -4},
	} {
		res, err := Eig(a, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", *opts, err)
		}
		for i := range want.Values {
			if math.Abs(res.Values[i]-want.Values[i]) > 1e-10 {
				t.Fatalf("opts %+v: eigenvalue %d drifted", *opts, i)
			}
		}
	}
}

// TestNoConvergencePropagation forces the QL/QR iteration to fail and checks
// that tridiag.ErrNoConvergence comes back through Solver.EigTo unwrapped
// (err == sentinel), for both the vectors (steqr) and values-only (sterf)
// paths, and that the Solver with its pooled workspaces survives.
func TestNoConvergencePropagation(t *testing.T) {
	oldQL := tridiag.MaxIterQL
	tridiag.MaxIterQL = 0
	restore := func() { tridiag.MaxIterQL = oldQL }
	defer restore()

	rng := rand.New(rand.NewSource(14))
	a := randSymMatrix(rng, 24)
	s := NewSolver(&Options{Method: QRIteration})
	defer s.Close()

	dst := NewMatrix(24)
	_, err := s.EigTo(context.Background(), a, dst)
	if err != ErrNoConvergence {
		t.Fatalf("EigTo: err=%v, want ErrNoConvergence unwrapped", err)
	}
	if !errors.Is(err, tridiag.ErrNoConvergence) {
		t.Fatal("sentinel identity lost")
	}

	if _, err := s.EigValues(a); err != ErrNoConvergence {
		t.Fatalf("EigValues (sterf path): err=%v, want ErrNoConvergence", err)
	}

	// Same solver, same pooled arena: a clean solve right after the failures.
	restore()
	vals, err := s.EigTo(context.Background(), a, dst)
	if err != nil {
		t.Fatalf("solve after no-convergence failure: %v", err)
	}
	if len(vals) != 24 {
		t.Fatalf("got %d values", len(vals))
	}
}

// TestDegenerateShapes pins the n=0 and n=1 behavior and the typed range
// errors, consistently across both algorithms.
func TestDegenerateShapes(t *testing.T) {
	for _, alg := range []Algorithm{TwoStage, OneStage} {
		opts := &Options{Algorithm: alg}

		res, err := Eig(NewMatrix(0), opts)
		if err != nil {
			t.Fatalf("alg=%v n=0: %v", alg, err)
		}
		if len(res.Values) != 0 || res.Vectors != nil {
			t.Fatalf("alg=%v n=0: values=%v vectors=%v, want empty/nil", alg, res.Values, res.Vectors)
		}

		res, err = Eig(NewMatrixFrom(1, []float64{5}), opts)
		if err != nil {
			t.Fatalf("alg=%v n=1: %v", alg, err)
		}
		if len(res.Values) != 1 || res.Values[0] != 5 {
			t.Fatalf("alg=%v n=1: values=%v", alg, res.Values)
		}
		if res.Vectors == nil || math.Abs(math.Abs(res.Vectors.At(0, 0))-1) > 1e-15 {
			t.Fatalf("alg=%v n=1: bad eigenvector", alg)
		}

		a := diagMatrix([]float64{1, 2, 3})
		for _, rg := range [][2]int{{0, 2}, {-1, 2}, {2, 1}, {1, 4}, {4, 4}} {
			if _, err := EigRange(a, rg[0], rg[1], opts); !errors.Is(err, ErrInvalidRange) {
				t.Fatalf("alg=%v range %v: err=%v, want ErrInvalidRange", alg, rg, err)
			}
			if _, err := EigValuesRange(a, rg[0], rg[1], opts); !errors.Is(err, ErrInvalidRange) {
				t.Fatalf("alg=%v values range %v: err=%v, want ErrInvalidRange", alg, rg, err)
			}
		}
		// Any range against an empty matrix is invalid.
		if _, err := EigRange(NewMatrix(0), 1, 1, opts); !errors.Is(err, ErrInvalidRange) {
			t.Fatalf("alg=%v range on n=0: err=%v, want ErrInvalidRange", alg, err)
		}
		var re *RangeError
		_, err = EigRange(a, 1, 7, opts)
		if !errors.As(err, &re) || re.IL != 1 || re.IU != 7 || re.N != 3 {
			t.Fatalf("alg=%v: RangeError fields %+v from %v", alg, re, err)
		}
	}
}

// TestBatchRangeValidatedWithoutDst is the regression test for the
// validation hole where validateBatchItem only checked IL/IU when a caller
// supplied a destination matrix: items without a Dst (including values-only
// ones) sailed past validation and only failed deep in the pipeline. Every
// bad range must fail fast with a typed *RangeError, Dst or no Dst.
func TestBatchRangeValidatedWithoutDst(t *testing.T) {
	s := NewSolver(&Options{Workers: 2})
	defer s.Close()
	a := diagMatrix([]float64{1, 2, 3})
	items := []BatchItem{
		{A: a, IL: 2, IU: 1},                   // inverted, no Dst
		{A: a, IL: 1, IU: 9, ValuesOnly: true}, // beyond n, values-only
		{A: a, IL: 0, IU: 2},                   // half-set range
		{A: a, IL: 4, IU: 4},                   // both beyond n
		{A: a},                                 // healthy control
	}
	results := s.SolveBatch(context.Background(), items)
	for i := 0; i < 4; i++ {
		var re *RangeError
		if !errors.As(results[i].Err, &re) {
			t.Fatalf("item %d (IL=%d IU=%d, no Dst): err=%v, want *RangeError",
				i, items[i].IL, items[i].IU, results[i].Err)
		}
		if re.N != 3 {
			t.Fatalf("item %d: RangeError.N=%d, want 3", i, re.N)
		}
		if !errors.Is(results[i].Err, ErrInvalidRange) {
			t.Fatalf("item %d: error does not match ErrInvalidRange sentinel", i)
		}
	}
	if results[4].Err != nil || len(results[4].Values) != 3 {
		t.Fatalf("healthy item harmed by neighbours: %+v", results[4])
	}
}

// TestBatchGateOverBudgetClamp pins the gate's clamp rule: a cost larger
// than the whole budget is clamped to the budget, so the oversized acquire
// succeeds but holds every byte (forcing it to run alone), and its release
// restores exactly the clamped amount instead of overflowing the budget.
func TestBatchGateOverBudgetClamp(t *testing.T) {
	g := newBatchGate(2, 100)
	ctx := context.Background()
	if err := g.acquire(ctx, 1000); err != nil {
		t.Fatalf("over-budget acquire must clamp and succeed: %v", err)
	}
	// The clamped acquire holds the full budget: a small follow-up blocks
	// even though a slot is free.
	acquired := make(chan error, 1)
	go func() { acquired <- g.acquire(ctx, 10) }()
	select {
	case <-acquired:
		t.Fatal("acquire got budget while a clamped oversized hold was live")
	case <-time.After(50 * time.Millisecond):
	}
	g.release(1000) // release clamps symmetrically
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release of a clamped hold did not free the budget")
	}
	g.release(10)
	g.mu.Lock()
	slots, avail := g.slots, g.avail
	g.mu.Unlock()
	if slots != 2 || avail != 100 {
		t.Fatalf("after all releases: slots=%d avail=%d, want 2/100", slots, avail)
	}
}

// TestSolveBatchOversizedItemsRunAlone is the end-to-end face of the clamp:
// items whose workspace estimate exceeds the entire MemoryBudget still
// complete (serialized, not deadlocked and not refused).
func TestSolveBatchOversizedItemsRunAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewSolver(&Options{Workers: 2, MemoryBudget: 1024})
	defer s.Close()
	if est := s.EstimateWorkspaceBytes(32, true); est <= 1024 {
		t.Fatalf("test premise broken: n=32 estimate %d fits the 1KiB budget", est)
	}
	items := make([]BatchItem, 3)
	for i := range items {
		items[i].A = randSymMatrix(rng, 32)
	}
	for i, r := range s.SolveBatch(context.Background(), items) {
		if r.Err != nil {
			t.Fatalf("oversized item %d: %v", i, r.Err)
		}
		if len(r.Values) != 32 {
			t.Fatalf("oversized item %d: %d values", i, len(r.Values))
		}
	}
}

// TestSolverGateSharedAcrossBatchCalls pins the persistent-gate contract
// introduced for the service: concurrent SolveBatch calls on one Solver
// draw from the same BatchConcurrency slots, and a single shared slot
// serializes them without deadlock or lost results.
func TestSolverGateSharedAcrossBatchCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSolver(&Options{Workers: 2, BatchConcurrency: 1})
	defer s.Close()
	mats := make([]*Matrix, 4)
	for i := range mats {
		mats[i] = randSymMatrix(rng, 24)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(mats))
	for _, a := range mats {
		wg.Add(1)
		go func(a *Matrix) {
			defer wg.Done()
			res := s.SolveBatch(context.Background(), []BatchItem{{A: a}})
			errs <- res[0].Err
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent single-item batch: %v", err)
		}
	}
}

// TestSolveBatchCancel cancels a batch mid-flight: items must come
// back either complete (bitwise correct) or with the context's error — never
// wedged, never corrupt — and the Solver must stay usable.
func TestSolveBatchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := NewSolver(&Options{Workers: 4})
	defer s.Close()

	items := make([]BatchItem, 12)
	for i := range items {
		items[i].A = randSymMatrix(rng, 72)
	}
	want := soloReference(t, Options{}, items)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // land mid-batch, not before admission
		cancel()
	}()
	results := s.SolveBatch(ctx, items)
	for i, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("item %d: err=%v, want context.Canceled", i, r.Err)
			}
			continue
		}
		requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
	}

	// The canceled batch released its slots and workspaces: a fresh batch
	// on the same Solver runs clean.
	for i, r := range s.SolveBatch(context.Background(), items[:3]) {
		requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
	}
}

// TestSolveBatchCloseMidFlight closes the Solver a few milliseconds into a
// batch: every item must come back either complete (bitwise correct) or with
// ErrClosed — the scheduler's ErrStopped never leaks, no item returns neither
// a result nor an error, and the call never wedges.
func TestSolveBatchCloseMidFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	items := make([]BatchItem, 12)
	for i := range items {
		items[i].A = randSymMatrix(rng, 72)
	}
	want := soloReference(t, Options{}, items)

	for trial := 0; trial < 20; trial++ {
		s := NewSolver(&Options{Workers: 4})
		done := make(chan []BatchResult, 1)
		go func() { done <- s.SolveBatch(context.Background(), items) }()
		time.Sleep(time.Duration(trial%5) * time.Millisecond)
		s.Close()
		var results []BatchResult
		select {
		case results = <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("trial %d: SolveBatch wedged after Close", trial)
		}
		for i, r := range results {
			if r.Err != nil {
				if !errors.Is(r.Err, ErrClosed) {
					t.Fatalf("trial %d item %d: err=%v, want ErrClosed", trial, i, r.Err)
				}
				continue
			}
			if r.Values == nil {
				t.Fatalf("trial %d item %d: neither a result nor an error", trial, i)
			}
			requireBitwise(t, fmt.Sprintf("trial %d item %d", trial, i), r, want[i].Values, want[i].Vectors)
		}
	}
}

// TestSolveBatchNonConverging routes a non-converging item through a parallel
// batch: its typed error must stay item-local while the surrounding items
// complete bitwise intact.
func TestSolveBatchNonConverging(t *testing.T) {
	oldQL := tridiag.MaxIterQL
	tridiag.MaxIterQL = 0
	defer func() { tridiag.MaxIterQL = oldQL }()

	rng := rand.New(rand.NewSource(26))
	opts := Options{Workers: 4, Method: QRIteration}

	// Diagonal items converge under a zero iteration budget; the dense one
	// cannot.
	d1 := make([]float64, 32)
	d2 := make([]float64, 48)
	for i := range d1 {
		d1[i] = rng.NormFloat64()
	}
	for i := range d2 {
		d2[i] = rng.NormFloat64()
	}
	items := []BatchItem{
		{A: diagMatrix(d1)},
		{A: randSymMatrix(rng, 40)}, // fails convergence
		{A: diagMatrix(d2)},
	}
	want := soloReference(t, opts, []BatchItem{items[0], items[2]})

	s := NewSolver(&opts)
	defer s.Close()
	results := s.SolveBatch(context.Background(), items)
	requireBitwise(t, "pre-failure item", results[0], want[0].Values, want[0].Vectors)
	if results[1].Err != ErrNoConvergence {
		t.Fatalf("non-converging item: err=%v, want ErrNoConvergence", results[1].Err)
	}
	requireBitwise(t, "post-failure item", results[2], want[1].Values, want[1].Vectors)
}

// TestSolveBatchSmallItemsNeedNoWorker holds both workers of a parallel
// Solver with tasks blocked on a channel, then runs a batch of small items:
// each must solve on its own goroutine without waiting for a scheduler worker,
// and match a solo solve bitwise.
func TestSolveBatchSmallItemsNeedNoWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	items := mixedItems(rng)
	want := soloReference(t, Options{}, items)

	s := NewSolver(&Options{Workers: 2})
	defer s.Close()
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(2)
	job := s.sched.NewJob(context.Background())
	for w := 0; w < 2; w++ {
		job.Submit(sched.Task{Name: "HOLD", Run: func(int) {
			held.Done()
			<-release
		}})
	}
	held.Wait()
	defer func() {
		close(release)
		job.Wait()
	}()

	done := make(chan []BatchResult, 1)
	go func() { done <- s.SolveBatch(context.Background(), items) }()
	select {
	case results := <-done:
		for i, r := range results {
			requireBitwise(t, fmt.Sprintf("item %d", i), r, want[i].Values, want[i].Vectors)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("small batch items waited for a held scheduler worker")
	}
}

// TestSolveBatchTraceAttribution checks the per-item collectors that come back
// from a parallel batch: every solve's phases must be attributed (stage1,
// stage2, eig_t, back-transformation) plus the admission-wait phase, and the
// Solver-level collector must hold the merged aggregate.
func TestSolveBatchTraceAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	agg := trace.New()
	s := NewSolver(&Options{Workers: 4, Collector: agg})
	defer s.Close()

	items := []BatchItem{
		{A: randSymMatrix(rng, 48)},
		{A: randSymMatrix(rng, 64)},
		{A: randSymMatrix(rng, 32)},
	}
	results := s.SolveBatch(context.Background(), items)
	var itemStage1 time.Duration
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Trace == nil {
			t.Fatalf("item %d: no per-item trace", i)
		}
		ph := r.Trace.Phases()
		for _, name := range []string{"stage1", "stage2", "eig_t"} {
			if ph[name] <= 0 {
				t.Fatalf("item %d: phase %q not attributed (got %v)", i, name, ph)
			}
		}
		if _, ok := ph["batch_wait"]; !ok {
			t.Fatalf("item %d: admission wait not recorded", i)
		}
		itemStage1 += ph["stage1"]
	}
	if got := agg.PhaseTime("stage1"); got < itemStage1 {
		t.Fatalf("aggregate stage1 %v < sum of per-item %v", got, itemStage1)
	}
}

// TestSolveBatchConcurrentCalls throws several batches at one Solver from
// concurrent goroutines (run under -race): the shared scheduler,
// gate, and pool must keep every item isolated and correct.
func TestSolveBatchConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a1 := randSymMatrix(rng, 40)
	a2 := randSymMatrix(rng, 56)
	want := soloReference(t, Options{}, []BatchItem{{A: a1}, {A: a2}})

	s := NewSolver(&Options{Workers: 4})
	defer s.Close()

	var failures atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			results := s.SolveBatch(context.Background(), []BatchItem{{A: a1}, {A: a2}})
			for i, r := range results {
				if r.Err != nil || !sameFloats(r.Values, want[i].Values) ||
					r.Vectors == nil || !sameFloats(r.Vectors.data, want[i].Vectors.data) {
					failures.Add(1)
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		<-done
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d item results diverged across concurrent batches", n)
	}
}
