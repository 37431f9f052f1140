package band

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
)

// factorsIdentical fails the test unless the two factors agree bit for bit
// over everything stage 1 produces: the band, all tiles (reflector storage
// included), and both T-factor families.
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
	for k := range ref.Tge {
		for i := range ref.Tge[k] {
			if ref.Tge[k][i] != got.Tge[k][i] {
				t.Fatalf("%s: Tge[%d] differs at %d", label, k, i)
			}
		}
		for x := range ref.Tts[k] {
			for i := range ref.Tts[k][x] {
				if ref.Tts[k][x][i] != got.Tts[k][x][i] {
					t.Fatalf("%s: Tts[%d][%d] differs at %d", label, k, x, i)
				}
			}
		}
	}
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
