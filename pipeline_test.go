package eigen

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tridiag"
)

// soloReference solves every item alone on a sequential Solver with the same
// numerical options, giving the bitwise ground truth the pipelined batch must
// reproduce at any worker count.
func soloReference(t *testing.T, opts Options, items []BatchItem) []BatchResult {
	t.Helper()
	opts.Workers = 0
	ref := NewSolver(&opts)
	defer ref.Close()
	out := make([]BatchResult, len(items))
	for i, it := range items {
		var res *Result
		var err error
		if it.ValuesOnly {
			var vals []float64
			if it.IL != 0 || it.IU != 0 {
				vals, err = ref.EigValuesRange(it.A, it.IL, it.IU)
			} else {
				vals, err = ref.EigValues(it.A)
			}
			res = &Result{Values: vals}
		} else if it.IL != 0 || it.IU != 0 {
			res, err = ref.EigRange(it.A, it.IL, it.IU)
		} else {
			res, err = ref.Eig(it.A)
		}
		if err != nil {
			t.Fatalf("solo reference item %d: %v", i, err)
		}
		out[i] = BatchResult{Values: res.Values, Vectors: res.Vectors}
	}
	return out
}

// pipelineItems is the mixed batch the pipelined-equivalence tests sweep:
// assorted sizes, a values-only item, and a range item.
func pipelineItems(rng *rand.Rand) []BatchItem {
	return []BatchItem{
		{A: randSymMatrix(rng, 48)},
		{A: randSymMatrix(rng, 32)},
		{A: randSymMatrix(rng, 64)},
		{A: randSymMatrix(rng, 24), ValuesOnly: true},
		{A: randSymMatrix(rng, 40), IL: 2, IU: 9},
		{A: randSymMatrix(rng, 56)},
	}
}

// TestSolveBatchPipelinedMatchesSolo is the pipeline's bitwise-identity gate:
// at every worker count the pipelined batch (phases of different items
// interleaved on one scheduler, memory-bound phases core-restricted,
// late-phase tasks drain-biased) must reproduce the sequential solo solves
// exactly. Run under -race by scripts/check.sh.
func TestSolveBatchPipelinedMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	items := pipelineItems(rng)
	want := soloReference(t, Options{}, items)

	for _, workers := range []int{1, 2, 4, 7} {
		s := NewSolver(&Options{Workers: workers})
		results := s.SolveBatch(context.Background(), items)
		for i, r := range results {
			requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestSolveBatchPipelinedFanout forces the per-tile fan-out shape (every
// phase expands into its task DAG under a per-item labeled, drain-biased job)
// and checks bitwise identity there too.
func TestSolveBatchPipelinedFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	items := pipelineItems(rng)
	want := soloReference(t, Options{}, items)

	for _, workers := range []int{2, 4, 7} {
		s := NewSolver(&Options{Workers: workers, BatchFanout: 1})
		results := s.SolveBatch(context.Background(), items)
		for i, r := range results {
			requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestSolveBatchPipelineDepthAndDisable sweeps the two new knobs: every
// PipelineDepth (including the clamped extremes) and the DisablePipeline
// kill-switch must leave results bitwise identical — the pipeline only moves
// work between workers, never changes what is computed.
func TestSolveBatchPipelineDepthAndDisable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	items := pipelineItems(rng)
	want := soloReference(t, Options{}, items)

	for _, opts := range []Options{
		{Workers: 4, PipelineDepth: 1},
		{Workers: 4, PipelineDepth: 2},
		{Workers: 4, PipelineDepth: -3},      // clamps to 0 → scheduler width
		{Workers: 4, PipelineDepth: 1 << 20}, // clamps to MaxWorkers, then width
		{Workers: 4, DisablePipeline: true},
		{Workers: 4, DisablePipeline: true, BatchFanout: 1},
		{Workers: 4, PipelineDepth: 2, BatchConcurrency: 3},
		{Workers: 4, PipelineDepth: 2, MemoryBudget: 1 << 20},
	} {
		opts := opts
		s := NewSolver(&opts)
		results := s.SolveBatch(context.Background(), items)
		for i, r := range results {
			requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestSolveBatchPipelineStage2Options checks the pipeline composes with the
// stage-2 tuning knobs (explicit core restriction, the parallel-tridiagonal
// kill-switch) without perturbing results.
func TestSolveBatchPipelineStage2Options(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	items := pipelineItems(rng)

	for _, opts := range []Options{
		{Workers: 4, Stage2Workers: 2},
		{Workers: 4, DisableParallelTridiag: true},
		{Workers: 4, Method: BisectionInverseIteration},
	} {
		opts := opts
		want := soloReference(t, opts, items)
		s := NewSolver(&opts)
		results := s.SolveBatch(context.Background(), items)
		for i, r := range results {
			requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
		}
		s.Close()
	}
}

// TestPipelineDepthNormalize pins the clamp: negatives collapse to 0 (auto =
// scheduler width) and absurd depths cap at the scheduler's hard worker
// limit, mirroring the Workers/Stage2Workers clamps.
func TestPipelineDepthNormalize(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0},
		{-5, 0},
		{3, 3},
		{sched.MaxWorkers, sched.MaxWorkers},
		{sched.MaxWorkers + 9, sched.MaxWorkers},
		{1 << 30, sched.MaxWorkers},
	} {
		o := Options{PipelineDepth: tc.in}
		o.normalize()
		if o.PipelineDepth != tc.want {
			t.Fatalf("PipelineDepth %d normalized to %d, want %d", tc.in, o.PipelineDepth, tc.want)
		}
	}
}

// TestSolveBatchPipelineCancel cancels a batch mid-flight: items must come
// back either complete (bitwise correct) or with the context's error — never
// wedged, never corrupt — and the Solver must stay usable.
func TestSolveBatchPipelineCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := NewSolver(&Options{Workers: 4, PipelineDepth: 2})
	defer s.Close()

	items := make([]BatchItem, 12)
	for i := range items {
		items[i].A = randSymMatrix(rng, 72)
	}
	want := soloReference(t, Options{}, items)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // land mid-pipeline, not before admission
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

	// The canceled pipeline released its slots and workspaces: a fresh batch
	// on the same Solver runs clean.
	for i, r := range s.SolveBatch(context.Background(), items[:3]) {
		requireBitwise(t, t.Name(), r, want[i].Values, want[i].Vectors)
	}
}

// TestSolveBatchPipelineNonConverging routes a non-converging item through
// the pipelined executor: its typed error must stay item-local while the
// surrounding items complete bitwise intact.
func TestSolveBatchPipelineNonConverging(t *testing.T) {
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

// TestSolveBatchReentrant calls SolveBatch from inside one of the Solver's
// own scheduler tasks: every item must be refused with ErrReentrantBatch (the
// call could only deadlock waiting for the worker it occupies). The same call
// aimed at a different Solver is legal and must succeed.
func TestSolveBatchReentrant(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a := randSymMatrix(rng, 16)

	s := NewSolver(&Options{Workers: 2})
	defer s.Close()
	other := NewSolver(&Options{Workers: 2})
	defer other.Close()

	var reentrant []BatchResult
	var crossRes []BatchResult
	job := s.sched.NewJobNamed(context.Background(), "reentrant-test")
	job.Submit(sched.Task{
		Name: "REENTER",
		Run: func(int) {
			reentrant = s.SolveBatch(context.Background(), []BatchItem{{A: a}, {A: a}})
			crossRes = other.SolveBatch(context.Background(), []BatchItem{{A: a}})
		},
	})
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	if len(reentrant) != 2 {
		t.Fatalf("got %d results", len(reentrant))
	}
	for i, r := range reentrant {
		if !errors.Is(r.Err, ErrReentrantBatch) {
			t.Fatalf("re-entrant item %d: err=%v, want ErrReentrantBatch", i, r.Err)
		}
	}
	if len(crossRes) != 1 || crossRes[0].Err != nil {
		t.Fatalf("cross-solver call from a task must succeed, got %+v", crossRes)
	}

	// Outside any task the same Solver accepts batches as usual.
	for _, r := range s.SolveBatch(context.Background(), []BatchItem{{A: a}}) {
		if r.Err != nil {
			t.Fatalf("non-reentrant batch after refusal: %v", r.Err)
		}
	}
}

// TestPipelineTraceAttribution checks the per-item collectors that come back
// from a pipelined batch: every solve's phases must be attributed (stage1,
// stage2, eig_t, back-transformation) plus the admission-wait phase, and the
// Solver-level collector must hold the merged aggregate.
func TestPipelineTraceAttribution(t *testing.T) {
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

// TestPipelineConcurrentBatches throws several pipelined batches at one
// Solver from concurrent goroutines (run under -race): the shared scheduler,
// gate, and pool must keep every item isolated and correct.
func TestPipelineConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a1 := randSymMatrix(rng, 40)
	a2 := randSymMatrix(rng, 56)
	want := soloReference(t, Options{}, []BatchItem{{A: a1}, {A: a2}})

	s := NewSolver(&Options{Workers: 4, PipelineDepth: 2})
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
