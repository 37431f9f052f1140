package tridiag

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
)

// goeTridiag returns the tridiagonal a Householder reduction leaves of an
// n×n GOE matrix, drawn directly (Dumitriu–Edelman): N(0, 2) on the diagonal,
// χ with n−1, …, 1 degrees of freedom beside it. Little of it deflates, which
// is the regime the benchmark's headline solve is in.
func goeTridiag(rng *rand.Rand, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64() * math.Sqrt2
	}
	for i := range e {
		var c float64
		for j := i; j < n-1; j++ {
			v := rng.NormFloat64()
			c += v * v
		}
		e[i] = math.Sqrt(c)
	}
	return d, e
}

// mergeCounts sums what the rank-one merges of the last StedcSched on ws
// did. Only merges above the cutoff are nodes of the DAG, so a caller that
// wants all of them sets dcParCutoff to dcBaseSize first.
type mergeCounts struct {
	roots, evals  int   // secular roots, evaluations of f they took
	maxIters      int   // most evaluations any one root took
	nk2           int64 // Σ n·k²
	gemm, secular int64 // Σ attributed flops
}

func countMerges(ws *WorkSet) (c mergeCounts) {
	for i := range ws.run.nodes {
		nd := &ws.run.nodes[i]
		if nd.left < 0 || nd.rho == 0 {
			continue
		}
		st := &nd.st
		c.roots += st.k
		c.evals += st.evals
		c.maxIters = max(c.maxIters, st.worst)
		c.nk2 += int64(st.n) * int64(st.k) * int64(st.k)
		c.gemm += st.gemmFlops(st.k)
		c.secular += dcSecularFlops(st.k, st.evals)
	}
	return c
}

// hardRow is one of the tridiagonals that are hard for an eigensolver.
type hardRow struct {
	name  string
	d, e  []float64
	unexp int // checks run on T·2^−unexp, which is of order one
}

// hardTridiagonals returns the hard classes TestStedcHard and TestSterfHard
// share: tight pairs (Wilkinson), blocks glued by a coupling at the deflation
// threshold, a spectrum that deflates almost everywhere ((−1, 2, −1)), graded
// and clustered entries, and entries at both ends of the exponent range.
func hardTridiagonals() []hardRow {
	rng := rand.New(rand.NewSource(77))
	glued := func(m, copies int, glue float64) (d, e []float64) {
		for b := 0; b < copies; b++ {
			wd, we := wilkinson(m)
			d = append(d, wd...)
			if b > 0 {
				e = append(e, glue)
			}
			e = append(e, we...)
		}
		return d, e
	}
	times := func(f float64, d, e []float64) {
		for i := range d {
			d[i] *= f
		}
		for i := range e {
			e[i] *= f
		}
	}
	var rows []hardRow
	add := func(name string, unexp int, d, e []float64) {
		rows = append(rows, hardRow{name: name, d: d, e: e, unexp: unexp})
	}
	d, e := wilkinson(1001)
	add("wilkinson1001", 0, d, e)
	d, e = glued(21, 40, 1e-8)
	add("glued40x21", 0, d, e)
	d, e = laplacian121(1000)
	for i := range e {
		e[i] = -1
	}
	add("-1,2,-1", 0, d, e)
	n := 400
	d, e = make([]float64, n), make([]float64, n-1)
	for i := range d {
		d[i] = math.Pow(10, -12*float64(i)/float64(n-1)) * (1 + rng.Float64())
	}
	for i := range e {
		e[i] = 0.5 * math.Sqrt(d[i]*d[i+1])
	}
	add("graded", 0, d, e)
	d, e = make([]float64, n), make([]float64, n-1)
	for i := range d {
		d[i] = float64(i%5) + 1e-10*rng.Float64()
	}
	for i := range e {
		e[i] = 1e-10 * rng.NormFloat64()
	}
	add("clustered1e-10", 0, d, e)
	d, e = randTridiag(rng, 300)
	times(1e150, d, e)
	add("normal*1e+150", 498, d, e)
	d, e = randTridiag(rng, 300)
	times(1e-150, d, e)
	add("normal*1e-150", -498, d, e)
	return rows
}

// unscaled returns r's tridiagonal brought to order one by an exact power of
// two (at 1e−150 the squares a residual sums would underflow to a pass).
func (r hardRow) unscaled() (d, e []float64) {
	d, e = make([]float64, len(r.d)), make([]float64, len(r.e))
	for i := range d {
		d[i] = math.Ldexp(r.d[i], -r.unexp)
	}
	for i := range e {
		e[i] = math.Ldexp(r.e[i], -r.unexp)
	}
	return d, e
}

// TestStedcHard drives the D&C over the tridiagonals that are hard for it
// (hardTridiagonals) under the budgets the rest of this file's siblings
// apply, as the plain recursion (one leaf) and as the task graph on two
// workers (bitwise the same), and holds the root finder to its iteration
// count on each.
func TestStedcHard(t *testing.T) {
	defer func(c int) { dcParCutoff = c }(dcParCutoff)
	dcParCutoff = dcBaseSize // every merge is a DAG node, so countMerges sees it
	rows := hardTridiagonals()

	s := sched.New(2)
	defer s.Shutdown()
	for _, r := range rows {
		n := len(r.d)
		vals, q, err := stedcOneLeaf(r.d, r.e)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		ws := NewWorkSet(2)
		pvals, pq, err := StedcSched(r.d, r.e, ws, s.NewJob(nil), 0, nil)
		if err != nil {
			t.Fatalf("%s on two workers: %v", r.name, err)
		}
		if !sameVec(vals, pvals) || !sameMat(q, pq) {
			t.Errorf("%s: StedcSched on two workers differs from the one-leaf solve", r.name)
		}
		if _, err := testmat.Check((&matrix.Tridiagonal{D: r.d, E: r.e}).ToDense(), vals, q, checkTol); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		c := countMerges(ws)
		if c.roots > 0 {
			perRoot := float64(c.evals) / float64(c.roots)
			t.Logf("%-16s n = %4d: %5d roots, %.2f evaluations per root, at most %d", r.name, n, c.roots, perRoot, c.maxIters)
			if perRoot > 8 {
				t.Errorf("%s: %.2f evaluations per root, want ≤ 8", r.name, perRoot)
			}
		}
		if c.maxIters >= secularMaxRational {
			t.Errorf("%s: a root took %d evaluations, the safeguard's cap", r.name, c.maxIters)
		}
	}
}

// TestStedcScalingExact pins what makes the 1e±150 rows above safe: T is
// scaled by a power of two before anything divides, so T·2^s is solved by the
// very operations that solve T — the vectors come out bitwise the same and
// the values are the same significands with the exponent moved.
func TestStedcScalingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	d, e := randTridiag(rng, 150)
	vals, q, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{498, -498, 1000, -1000} {
		sd, se := make([]float64, len(d)), make([]float64, len(e))
		for i := range d {
			sd[i] = math.Ldexp(d[i], s)
		}
		for i := range e {
			se[i] = math.Ldexp(e[i], s)
		}
		svals, sq, err := stedc(sd, se)
		if err != nil {
			t.Fatalf("2^%d: %v", s, err)
		}
		if !sameMat(sq, q) {
			t.Errorf("2^%d·T: eigenvectors differ from T's", s)
		}
		for i, v := range svals {
			if v != math.Ldexp(vals[i], s) {
				t.Errorf("2^%d·T: eigenvalue %d is %g, want %g", s, i, v, math.Ldexp(vals[i], s))
				break
			}
		}
	}
}

// TestStedcWorkAllocs: a repeat solve on one WorkSet allocates nothing — the
// planes, the group permutation, the column kinds and the ragged-panel
// scratch of the update all come from the WorkSet, and so does the DAG state
// of an inline StedcSched.
func TestStedcWorkAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	d, e := randTridiag(rng, 301)
	ws := NewWorkSet(1)
	solve := func() {
		if _, _, err := StedcSched(d, e, ws, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if a := testing.AllocsPerRun(3, solve); a != 0 {
		t.Errorf("repeat inline StedcSched allocates %v times per solve, want 0", a)
	}
}

// TestWorkSetRetention: what a WorkSet retains is a function of the problem
// order, not of how many different matrices it has solved or of the worker
// count. The D&C works in three n² planes laid out by its recursion tree, so
// forty different matrices leave behind what two do, and that is about 3 n².
func TestWorkSetRetention(t *testing.T) {
	const n, solves = 512, 40
	for _, workers := range []int{1, 2} {
		rng := rand.New(rand.NewSource(9))
		ws := NewWorkSet(workers)
		var s *sched.Scheduler
		if workers > 1 {
			s = sched.New(workers)
			defer s.Shutdown()
		}
		var after2 int64
		for it := 1; it <= solves; it++ {
			d, e := goeTridiag(rng, n)
			var job *sched.Job // nil: inline
			if s != nil {
				job = s.NewJob(nil)
			}
			if _, _, err := StedcSched(d, e, ws, job, 0, nil); err != nil {
				t.Fatal(err)
			}
			if it == 2 {
				after2 = ws.WorkspaceBytes()
			}
		}
		got := ws.WorkspaceBytes()
		nn := float64(8 * n * n)
		t.Logf("workers=%d: %.2f n² after 2 solves, %.2f n² after %d", workers, float64(after2)/nn, float64(got)/nn, solves)
		if got != after2 {
			t.Errorf("workers=%d: %d bytes retained after %d solves, %d after 2", workers, got, solves, after2)
		}
		if float64(got) > 3.5*nn {
			t.Errorf("workers=%d: %.2f n² retained after %d solves, want ≤ 3.5 n²", workers, float64(got)/nn, solves)
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled at its k-th
// call: a cancellation at a fixed point of a solve's checks, with no timer.
type cancelAfter struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestStedcSchedCancelThenReuse: a solve canceled half way leaves its
// WorkSet as it found it. The next solve on the set gives a fresh set's bits,
// and inline it makes no allocation and grows nothing: there is no buffer for
// the canceled solve to have taken away.
func TestStedcSchedCancelThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	d, e := goeTridiag(rng, 600)
	want, wantQ, err := stedc(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var s *sched.Scheduler
		job := func(ctx context.Context) *sched.Job {
			if s == nil {
				return sched.Inline(ctx)
			}
			return s.NewJob(ctx)
		}
		if workers > 1 {
			s = sched.New(workers)
		}
		ws := NewWorkSet(workers)
		// A full solve counts the checks it makes, and warms the set.
		count := &cancelAfter{Context: context.Background(), k: math.MaxInt64}
		if _, _, err := StedcSched(d, e, ws, job(count), 0, nil); err != nil {
			t.Fatal(err)
		}
		bytes := ws.WorkspaceBytes()
		cut := &cancelAfter{Context: context.Background(), k: count.calls.Load() / 2}
		if _, _, err := StedcSched(d, e, ws, job(cut), 0, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled solve returned %v, want context.Canceled", workers, err)
		}
		// No collection may start inside the count: the runtime's own
		// allocations for one would be counted as the solve's.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var vals []float64
		var q *matrix.Dense
		if s == nil {
			vals, q, err = StedcSched(d, e, ws, nil, 0, nil)
		} else {
			vals, q, err = StedcSched(d, e, ws, s.NewJob(nil), 0, nil)
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("workers=%d: solve after the cancellation: %v", workers, err)
		}
		if !sameVec(vals, want) || !sameMat(q, wantQ) {
			t.Errorf("workers=%d: solve after the cancellation differs from a fresh set's", workers)
		}
		if got := ws.WorkspaceBytes(); got != bytes {
			t.Errorf("workers=%d: %d bytes retained after the cancellation, %d before", workers, got, bytes)
		}
		if a := after.Mallocs - before.Mallocs; s == nil && a != 0 {
			t.Errorf("inline solve after the cancellation made %d allocations, want 0", a)
		}
		if s != nil {
			s.Shutdown()
		}
	}
}

// TestDCRegionsFit: every merge of the recursion tree packs its left factor,
// of ALen(m, m) values, into its region of the p plane, m·s values with
// s = packedStride(n). The packed row padding differs by kernel family, so
// the probe's family and the portable one are both checked.
func TestDCRegionsFit(t *testing.T) {
	check := func(family string) {
		pk := blas.CurrentPacking()
		var walk func(n, m int) bool
		walk = func(n, m int) bool {
			if m <= dcBaseSize {
				return true
			}
			if need, have := pk.ALen(m, m), m*packedStride(pk, n); need > have {
				t.Errorf("%s: n = %d, node of order %d packs %d values into a region of %d", family, n, m, need, have)
				return false
			}
			return walk(n, m/2) && walk(n, m-m/2)
		}
		for n := 1; n <= 2100; n++ {
			if !walk(n, n) {
				return
			}
		}
	}
	check(blas.GemmKernel())
	defer blas.UseAsm(blas.UseAsm(false))
	check("portable")
}
