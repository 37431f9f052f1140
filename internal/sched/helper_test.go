package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestHelperTaskNeverStarts: with every worker held by another job, the
// helper's task cannot start, so Split runs both halves on the caller and
// returns; End claims the task, which then never runs.
func TestHelperTaskNeverStarts(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	release := hold(s)
	j := s.NewJob(nil)
	h := j.Helper("HELPER")
	var order []string
	h.Split(func() { order = append(order, "mine") }, func() { order = append(order, "theirs") })
	if len(order) != 2 || order[0] != "mine" || order[1] != "theirs" {
		t.Fatalf("halves ran as %v, want [mine theirs] on the caller", order)
	}
	h.End()
	release()
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Started() {
		t.Fatal("the task ran after End claimed it")
	}
}

// TestHelperCanceledJob: a job canceled before its helper's task runs drops
// the task; Split still runs both halves, on the caller.
func TestHelperCanceledJob(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	release := hold(s)
	ctx, cancel := context.WithCancel(context.Background())
	j := s.NewJob(ctx)
	h := j.Helper("HELPER")
	cancel()
	release()
	if err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	ran := 0
	h.Split(func() { ran++ }, func() { ran++ })
	h.End()
	if ran != 2 || h.Started() {
		t.Fatalf("%d halves ran, task started %v; want 2 on the caller", ran, h.Started())
	}
}

// TestHelperAfterShutdown: on a shut-down scheduler the helper's task is
// dropped at the submit and the job reports ErrStopped; Split runs both
// halves on the caller and End returns.
func TestHelperAfterShutdown(t *testing.T) {
	s := New(2)
	s.Shutdown()
	j := s.NewJob(nil)
	h := j.Helper("HELPER")
	ran := 0
	h.Split(func() { ran++ }, func() { ran++ })
	h.End()
	h.End()
	if ran != 2 {
		t.Fatalf("%d halves ran, want 2", ran)
	}
	if err := j.Err(); err != ErrStopped {
		t.Fatalf("Err = %v, want ErrStopped", err)
	}
}

// TestHelperEndWhileRunning: End called from the caller's half while the
// task runs a long-running half stops that half through Stopped and returns
// only after the task has; Split then returns at once.
func TestHelperEndWhileRunning(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	j := s.NewJob(nil)
	h := j.Helper("STREAM")
	var streaming, returned atomic.Bool
	h.Split(func() {
		for !streaming.Load() {
			runtime.Gosched()
		}
		h.End()
		if !returned.Load() {
			t.Error("End returned before the task's half")
		}
	}, func() {
		streaming.Store(true)
		for !h.Stopped() {
			runtime.Gosched()
		}
		returned.Store(true)
	})
	if !h.Started() || !h.Stopped() {
		t.Fatalf("Started %v, Stopped %v; want both", h.Started(), h.Stopped())
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHelperNil: below two workers Helper returns nil, and a nil helper runs
// both halves in order on the caller without allocating.
func TestHelperNil(t *testing.T) {
	var nilJob *Job
	if h := nilJob.Helper("HELPER"); h != nil {
		t.Fatal("a nil job lent a helper")
	}
	s := New(1)
	defer s.Shutdown()
	if h := s.NewJob(nil).Helper("HELPER"); h != nil {
		t.Fatal("a one-worker job lent a helper")
	}
	var h *Helper
	var order []int
	mine := func() { order = append(order, 1) }
	theirs := func() { order = append(order, 2) }
	h.Split(mine, theirs)
	h.End()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 || h.Started() || h.Stopped() {
		t.Fatalf("nil helper ran %v, want [1 2]", order)
	}
	order = make([]int, 0, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		order = order[:0]
		h.Split(mine, theirs)
	}); allocs != 0 {
		t.Fatalf("nil helper's Split makes %v allocations, want 0", allocs)
	}
}

// TestHelperManySplits runs 1 000 Splits through one helper, each half
// writing its own slot and reading what earlier Splits wrote, so that the
// race detector checks every handoff; after End the task returns.
func TestHelperManySplits(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	j := s.NewJob(nil)
	h := j.Helper("HELPER")
	const n = 1000
	a, b := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		h.Split(func() {
			a[i] = i
			if i > 0 {
				a[i] += b[i-1]
			}
		}, func() {
			b[i] = 2 * i
			if i > 0 {
				b[i] += a[i-1]
			}
		})
	}
	h.End()
	for i := 1; i < n; i++ {
		if a[i] != i+b[i-1] || b[i] != 2*i+a[i-1] {
			t.Fatalf("split %d: a = %d, b = %d", i, a[i], b[i])
		}
	}
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the helper's task did not return after End")
	}
}
