package onestage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/work"
)

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %g, sequential Sytrd gives %g", what, i, got[i], want[i])
		}
	}
}

// TestSytrdJobBitwise: the reduction on a two-worker job, its symv and
// rank-2k calls split from SplitOrder on (and, at smaller orders, from order
// 8, so that every split row and every block boundary is exercised), leaves
// the bits of the sequential Sytrd in d, e, tau and the reflectors in a, at
// every n mod 4 and across panel widths.
func TestSytrdJobBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := sched.New(2)
	defer s.Shutdown()
	ws := work.NewArena()
	for _, tc := range []struct{ n, nb, from int }{
		{SplitOrder - 1, 0, SplitOrder}, {SplitOrder, 0, SplitOrder}, {SplitOrder + 1, 0, SplitOrder},
		{SplitOrder + 2, 0, SplitOrder}, {SplitOrder + 3, 0, SplitOrder}, {SplitOrder + 33, 32, SplitOrder},
		{9, 4, 8}, {70, 8, 8}, {131, 16, 8}, {200, 0, 8}, {257, 32, 8},
	} {
		orig := testmat.RandomSym(rng, tc.n)
		want := orig.Clone()
		wd, we, wtau := Sytrd(want, tc.nb, nil, nil)
		for rep := 0; rep < 2; rep++ {
			got := orig.Clone()
			job := s.NewJob(nil)
			d, e, tau := sytrd(got, tc.nb, job, ws, nil, tc.from)
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("n=%d nb=%d from=%d rep=%d", tc.n, tc.nb, tc.from, rep)
			sameBits(t, what+": d", d, wd)
			sameBits(t, what+": e", e, we)
			sameBits(t, what+": tau", tau, wtau)
			sameBits(t, what+": reflectors", got.Data, want.Data)
		}
	}
}

// cancelAfter is a context that reports cancellation from its calls-th Err
// on: a job checks Err once per panel, so the reduction is canceled at a
// known panel, with its task in flight.
type cancelAfter struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSytrdJobCancel cancels a split reduction a few panels in: SytrdJob
// returns with the job's error, its task has returned, and the scheduler then
// runs a whole reduction with the sequential bits.
func TestSytrdJobCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 2 * SplitOrder
	orig := testmat.RandomSym(rng, n)
	want := orig.Clone()
	wd, we, wtau := Sytrd(want, 0, nil, nil)
	s := sched.New(2)
	defer s.Shutdown()
	for _, calls := range []int32{0, 1, 4} {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.calls.Store(calls)
		job := s.NewJob(ctx)
		SytrdJob(orig.Clone(), 0, job, nil, nil)
		if err := job.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d checks: job error %v", calls, err)
		}
	}
	a := orig.Clone()
	job := s.NewJob(context.Background())
	d, e, tau := SytrdJob(a, 0, job, nil, nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after cancel: d", d, wd)
	sameBits(t, "after cancel: e", e, we)
	sameBits(t, "after cancel: tau", tau, wtau)
	sameBits(t, "after cancel: reflectors", a.Data, want.Data)
}

// TestSytrdJobTaskQueued runs a split reduction whose task cannot start:
// both workers are held by another job until the reduction has returned. The
// caller then runs every half itself, with the sequential bits.
func TestSytrdJobTaskQueued(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	orig := testmat.RandomSym(rng, SplitOrder+5)
	want := orig.Clone()
	Sytrd(want, 0, nil, nil)
	s := sched.New(2)
	defer s.Shutdown()
	gate := make(chan struct{})
	hold := s.NewJob(nil)
	for range 2 {
		hold.Submit(sched.Task{Priority: math.MaxInt, Run: func(int) { <-gate }})
	}
	a := orig.Clone()
	job := s.NewJob(nil)
	SytrdJob(a, 0, job, nil, nil)
	close(gate)
	if err := errors.Join(hold.Wait(), job.Wait()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Data, want.Data) {
		t.Fatal("reduction with its task queued differs from Sytrd")
	}
}

// TestSytrdJobAllocs: a split reduction allocates a fixed number of times,
// whatever its order. The halves of a split call and their method values
// are bound once per reduction, so the hundreds of split calls of the larger
// order add nothing.
func TestSytrdJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(43))
	s := sched.New(2)
	defer s.Shutdown()
	ws := work.NewArena()
	allocs := func(n int) int64 {
		orig := testmat.RandomSym(rng, n)
		a := orig.Clone()
		return mallocsPerRun(func() {
			a.CopyFrom(orig)
			job := s.NewJob(nil)
			SytrdJob(a, 0, job, ws, nil)
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(512), allocs(1024)
	t.Logf("W = 2: %d allocations at n = 512, %d at n = 1024", small, large)
	if large > small {
		t.Errorf("W = 2: %d allocations at n = 1024, more than the %d at n = 512", large, small)
	}
}

// mallocsPerRun is the heap allocations of f per run after a warm-up: the
// least of three averages over three runs each, because what the runtime
// allocates on its own (a sync.Pool's chain on a P it had not used, a
// goroutine's wait record) only ever adds to a count. Unlike
// testing.AllocsPerRun it leaves GOMAXPROCS alone, whose change makes every
// sync.Pool allocate anew, and it holds the collector off.
func mallocsPerRun(f func()) int64 {
	const runs = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.Mallocs-before.Mallocs)/runs)
	}
	return least
}

// BenchmarkSytrd times the reduction on one worker (Sytrd) and on a
// two-worker job that splits every call of order 8 or more, at the orders
// SplitOrder is read off. The gain of the split at trailing orders between
// two rows is the difference of the two rows' differences: the calls of
// order m ∈ [n₁, n₂) are what Sytrd(n₂) does beyond Sytrd(n₁).
func BenchmarkSytrd(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{256, 384, 512, 768, 1024, 1536, 2048} {
		orig := testmat.RandomSym(rng, n)
		a := matrix.NewDense(n, n)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
				var s *sched.Scheduler
				if w > 1 {
					s = sched.New(w)
					defer s.Shutdown()
				}
				ws := work.NewArena()
				for i := 0; i < b.N; i++ {
					a.CopyFrom(orig)
					var job *sched.Job
					if s != nil {
						job = s.NewJob(nil)
					}
					sytrd(a, 0, job, ws, nil, 8)
					job.Wait()
				}
			})
		}
	}
}
