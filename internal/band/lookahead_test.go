package band

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
)

// factorsIdentical fails the test unless the two factors agree bit for bit
// over everything stage 1 leaves for a later step: the band, all tiles
// (reflector storage included), and every prepared reflector, compared by
// what its readers get from it (probeApplied). Both factors must have been
// prepared in both forms (Config.ValuesOnly unset).
func factorsIdentical(t *testing.T, label string, ref, got *Factor) {
	t.Helper()
	for i := range ref.Band.Data {
		if ref.Band.Data[i] != got.Band.Data[i] {
			t.Fatalf("%s: band differs at %d", label, i)
		}
	}
	for j := 0; j < ref.NT; j++ {
		for i := 0; i < ref.NT; i++ {
			rt, gt := ref.A.Tile(i, j), got.A.Tile(i, j)
			for x := range rt {
				if rt[x] != gt[x] {
					t.Fatalf("%s: tile (%d,%d) differs at %d", label, i, j, x)
				}
			}
		}
	}
	same := func(name string, ts bool, rh, gh *householder.Block) {
		t.Helper()
		rp, gp := probeApplied(ts, rh), probeApplied(ts, gh)
		if len(rp) != len(gp) {
			t.Fatalf("%s: %s has shape %d, want %d", label, name, len(gp), len(rp))
		}
		for i := range rp {
			if rp[i] != gp[i] {
				t.Fatalf("%s: %s applied to the probe differs at %d", label, name, i)
			}
		}
	}
	for k := range ref.Hge {
		same(fmt.Sprintf("Hge[%d]", k), false, &ref.Hge[k], &got.Hge[k])
		for x := range ref.Hts[k] {
			same(fmt.Sprintf("Hts[%d][%d]", k, x), true, &ref.Hts[k][x], &got.Hts[k][x])
		}
	}
}

// probeApplied returns a prepared reflector block applied from the left, in
// each form, to one fixed probe: a block of probeCols columns (for a TS block
// the pair of its identity and stored rows). Two blocks that give the same
// bits here give the same bits to every reader, which applies them the same
// way to other operands.
func probeApplied(ts bool, h *householder.Block) []float64 {
	const probeCols = 3
	rows, k := h.Shape()
	probe := func(m int) []float64 {
		c := make([]float64, m*probeCols)
		for i := range c {
			c[i] = math.Sin(float64(i) + 0.5)
		}
		return c
	}
	work := make([]float64, householder.ApplyWork(blas.Left, rows, k, probeCols))
	var out []float64
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1, c2 := probe(k), probe(rows)
		if ts {
			h.ApplyTS(blas.Left, trans, probeCols, c1, max(1, k), c2, max(1, rows), work)
			out = append(out, c1...)
		} else {
			h.Apply(blas.Left, trans, probeCols, c2, max(1, rows), work)
		}
		out = append(out, c2...)
	}
	return out
}

// TestReduceLookaheadBitwise pins the core invariant of the look-ahead
// schedule: at every worker count the scheduled reduction is bitwise
// identical to the inline reference (runSeq, the kernels in submission
// order) — the priorities only reorder the ready queue.
func TestReduceLookaheadBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, nb := 30, 4
	a := testmat.RandomSym(rng, n)
	ref := Reduce(a.Clone(), Config{NB: nb}, nil, nil, nil)
	for workers := 1; workers <= 8; workers++ {
		s := sched.New(workers)
		got := Reduce(a.Clone(), Config{NB: nb}, s.NewJob(nil), nil, nil)
		s.Shutdown()
		factorsIdentical(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestReduceLookaheadPriorityBounds pins the priority layering contract: the
// graded feed boosts stay strictly below the SYRFB and panel priorities,
// vanish outside the look-ahead window and prefer nearer panels.
func TestReduceLookaheadPriorityBounds(t *testing.T) {
	if feedBoost(1) >= prioDiag {
		t.Fatalf("max feed boost %d reaches the SYRFB priority %d", feedBoost(1), prioDiag)
	}
	if prioDiag >= prioPanel {
		t.Fatalf("SYRFB priority %d reaches the panel priority %d", prioDiag, prioPanel)
	}
	if feedBoost(0) != 0 || feedBoost(lookahead+1) != 0 {
		t.Fatal("feedBoost boosts outside the look-ahead window")
	}
	for dist := 1; dist < lookahead; dist++ {
		if feedBoost(dist) <= feedBoost(dist+1) || feedBoost(dist+1) <= 0 {
			t.Fatalf("feedBoost does not prefer panel distance %d over %d", dist, dist+1)
		}
	}
}

// TestReduceLookaheadCancel exercises mid-stage-1 cancellation under -race:
// a solve canceled while the DAG drains must return (tasks stop at a task
// boundary), surface the context error through the job, and leave the
// scheduler usable for a follow-up solve that still matches the reference.
func TestReduceLookaheadCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, nb := 60, 4
	a := testmat.RandomSym(rng, n)
	ref := Reduce(a.Clone(), Config{NB: nb}, nil, nil, nil)
	s := sched.New(4)
	defer s.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	job := s.NewJob(ctx)
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	Reduce(a.Clone(), Config{NB: nb}, job, nil, nil)
	// The race between cancel and completion is inherent; either outcome is
	// fine as long as the job settled and the scheduler survived.
	_ = job.Err()

	// Pre-canceled inline job: the sequential path must stop at a panel
	// boundary without touching the scheduler at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ij := sched.Inline(ctx2)
	Reduce(a.Clone(), Config{NB: nb}, ij, nil, nil)
	if ij.Err() == nil {
		t.Fatal("pre-canceled inline reduce reported no error")
	}

	got := Reduce(a.Clone(), Config{NB: nb}, s.NewJob(nil), nil, nil)
	factorsIdentical(t, "post-cancel solve", ref, got)
}

// TestReduceLookaheadTraceAttribution checks the stage-1 sub-phase split: a
// scheduled run with a collector attributes panel and update busy time, and
// the recorded stall (idle worker-time) is the non-negative remainder the
// Reduce accounting computes.
func TestReduceLookaheadTraceAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n, nb := 40, 4
	a := testmat.RandomSym(rng, n)
	for name, mk := range map[string]func() (*sched.Scheduler, *sched.Job){
		"sequential": func() (*sched.Scheduler, *sched.Job) { return nil, nil },
		"scheduled": func() (*sched.Scheduler, *sched.Job) {
			s := sched.New(3)
			return s, s.NewJob(nil)
		},
	} {
		tc := trace.New()
		s, job := mk()
		Reduce(a.Clone(), Config{NB: nb}, job, nil, tc)
		if s != nil {
			s.Shutdown()
		}
		if tc.PhaseTime(trace.PhaseStage1Panel) <= 0 {
			t.Fatalf("%s: no panel time attributed", name)
		}
		if tc.PhaseTime(trace.PhaseStage1Update) <= 0 {
			t.Fatalf("%s: no update time attributed", name)
		}
		if tc.PhaseTime(trace.PhaseStage1Stall) < 0 {
			t.Fatalf("%s: negative stall", name)
		}
	}
}
