package sched

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSequentialChain(t *testing.T) {
	// A chain of RW tasks on one resource must execute in submission order.
	s := New(4)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		i := i
		j.Submit(Task{
			Name: "chain",
			Deps: []Dep{RW(1)},
			Run: func(int) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	j.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("chain executed out of order at %d: %v", i, order[:i+1])
		}
	}
}

func TestReadersRunConcurrentlyBetweenWriters(t *testing.T) {
	// writer; N readers; writer. The second writer must see all readers done.
	s := New(4)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var stage int32 // 0 before w1, 1 after w1, 2 after w2
	var readersDone int32
	j.Submit(Task{Name: "w1", Deps: []Dep{RW(7)}, Run: func(int) { atomic.StoreInt32(&stage, 1) }})
	const nr = 16
	for i := 0; i < nr; i++ {
		j.Submit(Task{Name: "r", Deps: []Dep{R(7)}, Run: func(int) {
			if atomic.LoadInt32(&stage) != 1 {
				t.Error("reader ran before first writer or after second")
			}
			atomic.AddInt32(&readersDone, 1)
		}})
	}
	j.Submit(Task{Name: "w2", Deps: []Dep{RW(7)}, Run: func(int) {
		if atomic.LoadInt32(&readersDone) != nr {
			t.Errorf("second writer ran with %d/%d readers done", readersDone, nr)
		}
		atomic.StoreInt32(&stage, 2)
	}})
	j.Wait()
	if stage != 2 {
		t.Fatal("not all tasks ran")
	}
}

func TestIndependentTasksParallel(t *testing.T) {
	// With w workers and tasks that block on a shared barrier, all workers
	// must be used (proves tasks on distinct resources run concurrently).
	const w = 4
	s := New(w)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var barrier sync.WaitGroup
	barrier.Add(w)
	workers := make(chan int, w)
	for i := 0; i < w; i++ {
		i := i
		j.Submit(Task{
			Name: "par",
			Deps: []Dep{RW(100 + i)},
			Run: func(worker int) {
				barrier.Done()
				barrier.Wait() // deadlocks unless all w run simultaneously
				workers <- worker
			},
		})
	}
	donech := make(chan struct{})
	go func() { j.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(10 * time.Second):
		t.Fatal("parallel tasks deadlocked: workers not running concurrently")
	}
	seen := map[int]bool{}
	for i := 0; i < w; i++ {
		seen[<-workers] = true
	}
	if len(seen) != w {
		t.Fatalf("expected %d distinct workers, got %d", w, len(seen))
	}
}

func TestPriorityOrder(t *testing.T) {
	// With the one worker held by a gate task, independent tasks submitted
	// meanwhile must run in priority order once it is released, and tasks
	// of equal priority in submission order.
	s := New(1)
	defer s.Shutdown()
	release := hold(s)
	j := s.NewJob(nil)
	var order []int // submission indices, in execution order
	var mu sync.Mutex
	prios := []int{1, 5, 3, 5, 9, 0, 3, 5, 1}
	for i, p := range prios {
		i, p := i, p
		j.Submit(Task{
			Name:     "p",
			Priority: p,
			Deps:     []Dep{RW(200 + i)},
			Run: func(int) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	release()
	j.Wait()
	if len(order) != len(prios) {
		t.Fatalf("ran %d of %d tasks", len(order), len(prios))
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if prios[a] < prios[b] {
			t.Fatalf("priority order violated: ran tasks %v", order)
		}
		if prios[a] == prios[b] && a > b {
			t.Fatalf("equal priorities out of submission order: ran tasks %v", order)
		}
	}
}

// hold occupies every worker of s with a gate task on a job of its own and
// returns once all of them run; the workers take other tasks only after
// release is called.
func hold(s *Scheduler) (release func()) {
	gate := make(chan struct{})
	var running sync.WaitGroup
	running.Add(s.Workers())
	j := s.NewJob(nil)
	for w := 0; w < s.Workers(); w++ {
		j.Submit(Task{Name: "HOLD", Run: func(int) {
			running.Done()
			<-gate
		}})
	}
	running.Wait()
	return func() { close(gate) }
}

func TestWaitThenReuse(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var a, b int32
	j.Submit(Task{Name: "a", Deps: []Dep{RW(1)}, Run: func(int) { atomic.AddInt32(&a, 1) }})
	j.Wait()
	if a != 1 {
		t.Fatal("first batch incomplete")
	}
	j.Submit(Task{Name: "b", Deps: []Dep{R(1)}, Run: func(int) { atomic.AddInt32(&b, 1) }})
	j.Wait()
	if b != 1 {
		t.Fatal("second batch incomplete")
	}
}

func TestTraceRecordsAllTasks(t *testing.T) {
	s := New(2, WithTrace())
	j := s.NewJob(nil)
	for i := 0; i < 10; i++ {
		j.Submit(Task{Name: "tr", Deps: []Dep{RW(5)}, Run: func(int) {}})
	}
	j.Wait()
	ev := s.Trace()
	s.Shutdown()
	if len(ev) != 10 {
		t.Fatalf("trace has %d events, want 10", len(ev))
	}
	for _, e := range ev {
		if e.End < e.Start {
			t.Fatalf("event %q ends before it starts", e.Name)
		}
	}
}

// TestSerializabilityProperty drives random task graphs and checks that the
// execution is equivalent to sequential submission order: every reader of a
// resource observes exactly the number of writes submitted before it, and
// the final write count matches the number of writers.
func TestSerializabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nRes = 6
		nTasks := 20 + rng.Intn(60)
		var counters [nRes]int64

		type expect struct {
			task     int
			resource int
			want     int64
			got      *int64
		}
		var expects []expect
		writesSoFar := [nRes]int64{}

		s := New(1 + rng.Intn(7))
		j := s.NewJob(nil)
		for i := 0; i < nTasks; i++ {
			nDeps := 1 + rng.Intn(3)
			var deps []Dep
			var reads, writes []int
			used := map[int]bool{}
			for d := 0; d < nDeps; d++ {
				res := rng.Intn(nRes)
				if used[res] {
					continue
				}
				used[res] = true
				if rng.Intn(2) == 0 {
					deps = append(deps, R(res))
					reads = append(reads, res)
				} else {
					deps = append(deps, RW(res))
					writes = append(writes, res)
				}
			}
			for _, res := range reads {
				e := expect{task: i, resource: res, want: writesSoFar[res], got: new(int64)}
				expects = append(expects, e)
				res := res
				got := e.got
				deps := deps
				j.Submit(Task{
					Name: "reader",
					Deps: deps,
					Run: func(int) {
						atomic.StoreInt64(got, atomic.LoadInt64(&counters[res]))
					},
				})
				// One submission per read expectation keeps bookkeeping
				// simple; writers get their own task below.
				deps = nil
				_ = deps
			}
			for _, res := range writes {
				res := res
				j.Submit(Task{
					Name: "writer",
					Deps: []Dep{RW(res)},
					Run: func(int) {
						atomic.AddInt64(&counters[res], 1)
					},
				})
				writesSoFar[res]++
			}
		}
		j.Wait()
		s.Shutdown()
		for _, e := range expects {
			if *e.got != e.want {
				t.Logf("seed %d: task %d read resource %d = %d, want %d", seed, e.task, e.resource, *e.got, e.want)
				return false
			}
		}
		for r := 0; r < nRes; r++ {
			if counters[r] != writesSoFar[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateResourceInDeps(t *testing.T) {
	// A task listing the same resource as Read and ReadWrite must behave as a
	// writer (strongest mode wins) and not deadlock on itself.
	s := New(2)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var v int64
	j.Submit(Task{Name: "w", Deps: []Dep{RW(3)}, Run: func(int) { atomic.StoreInt64(&v, 1) }})
	j.Submit(Task{Name: "rw", Deps: []Dep{R(3), RW(3)}, Run: func(int) {
		if atomic.LoadInt64(&v) != 1 {
			t.Error("mixed-mode task ran before its writer dependence")
		}
		atomic.StoreInt64(&v, 2)
	}})
	j.Submit(Task{Name: "r", Deps: []Dep{R(3)}, Run: func(int) {
		if atomic.LoadInt64(&v) != 2 {
			t.Error("reader did not see mixed-mode writer")
		}
	}})
	j.Wait()
}

func TestSchedulerStress(t *testing.T) {
	// Hammer the scheduler with a wide mix of dependence patterns under the
	// race detector.
	s := New(8)
	defer s.Shutdown()
	j := s.NewJob(nil)
	var total int64
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		res := rng.Intn(32)
		mode := RW(res)
		if rng.Intn(3) == 0 {
			mode = R(res)
		}
		j.Submit(Task{
			Name: "stress",
			Deps: []Dep{mode, R(rng.Intn(32))},
			Run:  func(int) { atomic.AddInt64(&total, 1) },
		})
	}
	j.Wait()
	if total != 2000 {
		t.Fatalf("ran %d/2000", total)
	}
}

func TestWorkersAndGuards(t *testing.T) {
	s := New(3)
	defer s.Shutdown()
	j := s.NewJob(nil)
	if s.Workers() != 3 {
		t.Fatalf("Workers = %d", s.Workers())
	}
	// Constructor guards.
	for _, bad := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) should panic", bad)
				}
			}()
			New(bad)
		}()
	}
	// Task without body.
	defer func() {
		if recover() == nil {
			t.Fatal("Submit without Run should panic")
		}
	}()
	j.Submit(Task{Name: "empty"})
}

func TestNewRejectsTooManyWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(65) did not panic; public entry points rely on clamping against MaxWorkers")
		}
	}()
	New(MaxWorkers + 1)
}

func TestSubmitAfterShutdown(t *testing.T) {
	// A task submitted after Shutdown is dropped and the job's error is the
	// sticky ErrStopped — no panic, no hang.
	s := New(1)
	s.Shutdown()
	j := s.NewJob(nil)
	ran := false
	j.Submit(Task{Name: "late", Run: func(int) { ran = true }})
	if ran {
		t.Fatal("task ran after shutdown")
	}
	if err := j.Err(); err != ErrStopped {
		t.Fatalf("Err = %v, want ErrStopped", err)
	}
}

// TestSchedRandomDAGDrains drives random access lists — reads and writes
// over 16 resources, repeats included — with random
// priorities at several widths, and cancels the job from inside a random task
// (or not at all). Wait must return; every task runs at most once, and the
// tasks that ran are exactly the ones the trace records (the others were
// skipped); a task that ran sees, on each resource it lists, the version its
// last writer in submission order left; without a cancellation every task
// runs.
func TestSchedRandomDAGDrains(t *testing.T) {
	const nRes = 16
	for _, w := range []int{1, 2, 4, 7} {
		for trial := 0; trial < 25; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*w + trial)))
			nTasks := 20 + rng.Intn(300)
			cancelAt := rng.Intn(nTasks + nTasks/4) // ≥ nTasks: never canceled
			s := New(w, WithTrace())
			ctx, cancel := context.WithCancel(context.Background())
			job := s.NewJob(ctx)

			var version [nRes]atomic.Int64 // 1 + index of the task that last wrote it
			var lastWriter [nRes]int64
			ran := make([]atomic.Int32, nTasks)
			for i := 0; i < nTasks; i++ {
				var deps []Dep
				for d := 1 + rng.Intn(4); d > 0; d-- {
					res, mode := rng.Intn(nRes), ReadWrite
					if rng.Intn(3) == 0 {
						mode = Read
					}
					deps = append(deps, Dep{Resource: res, Mode: mode})
				}
				want := map[int]int64{}
				var writes []int
				for _, d := range deps {
					want[d.Resource] = lastWriter[d.Resource]
					if d.Mode != Read && !slices.Contains(writes, d.Resource) {
						writes = append(writes, d.Resource)
					}
				}
				for _, res := range writes {
					lastWriter[res] = int64(i + 1)
				}
				i := i
				job.Submit(Task{
					Name:     "random",
					Deps:     deps,
					Priority: rng.Intn(7) - 3,
					Run: func(int) {
						if ran[i].Add(1) != 1 {
							t.Errorf("workers=%d trial=%d: task %d ran twice", w, trial, i)
						}
						for res, v := range want {
							if got := version[res].Load(); got != v {
								t.Errorf("workers=%d trial=%d: task %d saw version %d of resource %d, want %d", w, trial, i, got, res, v)
							}
						}
						for _, res := range writes {
							version[res].Store(int64(i + 1))
						}
						if i == cancelAt {
							cancel()
						}
					},
				})
			}

			done := make(chan error, 1)
			go func() { done <- job.Wait() }()
			var err error
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("workers=%d trial=%d: Wait did not return", w, trial)
			}
			events := s.Trace()
			s.Shutdown()
			cancel()

			traced := make([]bool, nTasks)
			for _, ev := range events {
				if traced[ev.Seq] {
					t.Fatalf("workers=%d trial=%d: task %d traced twice", w, trial, ev.Seq)
				}
				traced[ev.Seq] = true
			}
			for i := range ran {
				if (ran[i].Load() == 1) != traced[i] {
					t.Fatalf("workers=%d trial=%d: task %d ran %d times but traced=%v", w, trial, i, ran[i].Load(), traced[i])
				}
				if cancelAt >= nTasks && ran[i].Load() != 1 {
					t.Fatalf("workers=%d trial=%d: task %d skipped without a cancellation", w, trial, i)
				}
			}
			if cancelAt < nTasks {
				if ran[cancelAt].Load() != 1 || !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d trial=%d: canceling task ran %d times, Wait = %v", w, trial, ran[cancelAt].Load(), err)
				}
			} else if err != nil {
				t.Fatalf("workers=%d trial=%d: Wait = %v without a cancellation", w, trial, err)
			}
		}
	}
}
