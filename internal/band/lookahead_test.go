package band

import (
	"context"
	"fmt"
	"testing"
	"time"

	"math/rand"

	"repro/internal/sched"
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
// schedule: at every worker count and depth the scheduled reduction is
// bitwise identical to the inline reference (runSeq, the kernels in
// submission order) — the priorities only reorder the ready queue.
func TestReduceLookaheadBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, nb := 30, 4
	a := randSym(rng, n)
	ref := ReduceWith(a.Clone(), Config{NB: nb}, nil, nil, nil)
	for _, workers := range []int{1, 2, 4, 7} {
		s := sched.New(workers)
		for _, depth := range []int{1, 2, 4} {
			got := ReduceWith(a.Clone(), Config{NB: nb, Lookahead: depth}, s.NewJob(nil), nil, nil)
			factorsIdentical(t, label("lookahead", workers, depth), ref, got)
		}
		s.Shutdown()
	}
}

func label(mode string, workers, depth int) string {
	return fmt.Sprintf("%s workers=%d depth=%d", mode, workers, depth)
}

// TestReduceLookaheadDepthClamp covers the depth knob's edge behaviour: the
// resolver maps non-positive depths to the default and absurd ones to the
// cap, and an absurd depth passed end to end still yields the bitwise
// reference result.
func TestReduceLookaheadDepthClamp(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, DefaultLookahead},
		{0, DefaultLookahead},
		{1, 1},
		{MaxLookahead, MaxLookahead},
		{MaxLookahead + 1, MaxLookahead},
		{1000, MaxLookahead},
		{1 << 30, MaxLookahead},
	}
	for _, c := range cases {
		if got := clampLookahead(c.in); got != c.want {
			t.Fatalf("clampLookahead(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(42))
	n, nb := 26, 5
	a := randSym(rng, n)
	ref := ReduceWith(a.Clone(), Config{NB: nb}, nil, nil, nil)
	s := sched.New(3)
	defer s.Shutdown()
	for _, depth := range []int{-7, 0, 1 << 30} {
		got := ReduceWith(a.Clone(), Config{NB: nb, Lookahead: depth}, s.NewJob(nil), nil, nil)
		factorsIdentical(t, label("clamped", 3, depth), ref, got)
	}
}

// TestReduceLookaheadPriorityBounds pins the priority layering contract: the
// graded feed boosts stay strictly below the SYRFB and panel priorities at
// the maximum depth.
func TestReduceLookaheadPriorityBounds(t *testing.T) {
	if feedBoost(MaxLookahead, 1) >= prioDiag {
		t.Fatalf("max feed boost %d reaches the SYRFB priority %d", feedBoost(MaxLookahead, 1), prioDiag)
	}
	if prioDiag >= prioPanel {
		t.Fatalf("SYRFB priority %d reaches the panel priority %d", prioDiag, prioPanel)
	}
	for _, d := range []int{1, 2, MaxLookahead} {
		if feedBoost(d, 0) != 0 || feedBoost(d, d+1) != 0 {
			t.Fatalf("feedBoost(depth=%d) boosts outside the window", d)
		}
		if feedBoost(d, 1) <= feedBoost(d, d) && d > 1 {
			t.Fatalf("feedBoost(depth=%d) does not prefer nearer panels", d)
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
	a := randSym(rng, n)
	ref := ReduceWith(a.Clone(), Config{NB: nb}, nil, nil, nil)
	s := sched.New(4)
	defer s.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	job := s.NewJob(ctx)
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	ReduceWith(a.Clone(), Config{NB: nb}, job, nil, nil)
	// The race between cancel and completion is inherent; either outcome is
	// fine as long as the job settled and the scheduler survived.
	_ = job.Err()

	// Pre-canceled inline job: the sequential path must stop at a panel
	// boundary without touching the scheduler at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ij := sched.Inline(ctx2)
	ReduceWith(a.Clone(), Config{NB: nb}, ij, nil, nil)
	if ij.Err() == nil {
		t.Fatal("pre-canceled inline reduce reported no error")
	}

	got := ReduceWith(a.Clone(), Config{NB: nb}, s.NewJob(nil), nil, nil)
	factorsIdentical(t, "post-cancel solve", ref, got)
}

// TestReduceLookaheadTraceAttribution checks the stage-1 sub-phase split: a
// scheduled run with a collector attributes panel and update busy time, and
// the recorded stall (idle worker-time) is the non-negative remainder the
// ReduceWith accounting computes.
func TestReduceLookaheadTraceAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n, nb := 40, 4
	a := randSym(rng, n)
	for name, mk := range map[string]func() (*sched.Scheduler, *sched.Job){
		"sequential": func() (*sched.Scheduler, *sched.Job) { return nil, nil },
		"scheduled": func() (*sched.Scheduler, *sched.Job) {
			s := sched.New(3)
			return s, s.NewJob(nil)
		},
	} {
		tc := trace.New()
		s, job := mk()
		ReduceWith(a.Clone(), Config{NB: nb}, job, nil, tc)
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
