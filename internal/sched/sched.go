// Package sched implements the task runtime the tile algorithms are built
// on: one dynamic scheduler in the style of PLASMA's QUARK. Tasks are
// submitted with their read/write sets over abstract resources (tile
// handles); the runtime infers RAW/WAR/WAW dependences from the submission
// order, builds the DAG implicitly, and executes ready tasks on a worker
// pool. Ready tasks wait in one heap ordered by priority (to push the
// critical path), then submission order; any idle worker takes the top one.
// The paper's second strategy, a static runtime replaying a precomputed
// per-worker order, and its core restriction (per-worker affinity masks for
// the memory-bound bulge chase) were measured against this and removed
// (EXPERIMENTS.md, "One phase plan" and "One ready heap").
//
// The execution is equivalent to executing the tasks sequentially in
// submission order: priorities only choose among ready tasks.
package sched

import (
	"container/heap"
	"sync"
	"time"
)

// AccessMode describes how a task uses a resource.
type AccessMode uint8

const (
	// Read declares a read-only access.
	Read AccessMode = iota
	// ReadWrite declares a write, in place or not: every access that is not
	// a read orders the same way.
	ReadWrite
)

// Dep is one entry of a task's access list: the resource it touches and how.
// Resources are opaque integers; the caller (e.g. the tile layer) assigns
// them. Distinct resources are assumed not to alias.
type Dep struct {
	Resource int
	Mode     AccessMode
}

// R is shorthand for a read dependence.
func R(res int) Dep { return Dep{Resource: res, Mode: Read} }

// RW is shorthand for a read-write dependence.
func RW(res int) Dep { return Dep{Resource: res, Mode: ReadWrite} }

// Task is a unit of work with its declared data accesses.
type Task struct {
	// Name labels the task in traces ("GEQRT(2,1)").
	Name string
	// Run executes the task body. worker is the index of the executing
	// worker in [0, Workers).
	Run func(worker int)
	// Deps is the access list used for dependence inference.
	Deps []Dep
	// Priority orders the ready queue: higher runs first. Use it to push
	// critical-path tasks (panel factorizations) ahead of trailing updates.
	Priority int
}

// TraceEvent records one executed task for post-mortem analysis (Gantt
// charts, per-kernel time accounting).
type TraceEvent struct {
	Name       string
	Worker     int
	Start, End time.Duration // relative to scheduler start
	Seq        int           // submission sequence number
}

// node is the runtime state of a submitted task.
type node struct {
	task      Task
	job       *Job // the job the task belongs to
	seq       int
	waitCount int     // unsatisfied dependences
	children  []*node // tasks that depend on this one
	done      bool
}

// resourceState tracks the last-writer/reader frontier per resource.
type resourceState struct {
	lastWriter *node
	readers    []*node // readers since lastWriter
}

// Scheduler is the dynamic dependence-tracking runtime. Create with New,
// open a Job per stream of tasks with NewJob, submit the tasks on the job and
// Wait on it.
//
// A Scheduler is designed to be long-lived: a persistent worker pool serves
// any number of Jobs, each with its own dependence frontier, completion
// tracking and cancellation context, so concurrent solves can share one pool
// without false dependences.
type Scheduler struct {
	workers int
	trace   bool

	mu        sync.Mutex
	cond      *sync.Cond
	ready     taskHeap // ready tasks, best first (see less)
	pending   int      // submitted but not finished, across all jobs
	stopped   bool
	seq       int
	startTime time.Time
	events    []TraceEvent
	wg        sync.WaitGroup
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithTrace enables recording of TraceEvents for every executed task.
func WithTrace() Option { return func(s *Scheduler) { s.trace = true } }

// MaxWorkers is the widest pool New accepts: it bounds how many goroutines a
// caller's worker count starts. Public entry points must clamp (or reject)
// user-supplied widths against this bound before reaching New — New itself
// panics, which is acceptable only for internal callers that pass validated
// values.
const MaxWorkers = 64

// New creates a dynamic scheduler with the given number of workers. Workers
// are goroutines; on a machine with fewer cores they time-share, which
// preserves the dependence semantics (and lets the scheduler logic be tested
// at any width).
func New(workers int, opts ...Option) *Scheduler {
	if workers < 1 {
		panic("sched: need at least one worker")
	}
	if workers > MaxWorkers {
		panic("sched: at most MaxWorkers (64) workers")
	}
	s := &Scheduler{workers: workers}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range opts {
		o(s)
	}
	s.startTime = time.Now()
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(w)
	}
	return s
}

// Workers reports the worker pool width.
func (s *Scheduler) Workers() int { return s.workers }

// submit registers a task on job j. Dependences are inferred against the
// job's previously submitted tasks from the access list.
func (s *Scheduler) submit(j *Job, t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		// A submit that races Shutdown (a solve snapshotting the scheduler
		// just before Close) must not panic from library code: the task is
		// dropped and the job turns sticky-failed, so the solve's next
		// Err/Wait reports ErrStopped instead of crashing the process.
		if !j.canceled {
			j.canceled = true
			j.err = ErrStopped
		}
		return
	}
	n := &node{task: t, job: j, seq: s.seq}
	s.seq++
	s.pending++
	j.pending++

	// Infer dependences, one edge set per resource in declaration order. A
	// resource may appear more than once in the access list (e.g. a two-sided
	// kernel reading and writing the same tile): it is handled at its first
	// mention, with the strongest mode of all of them. Access lists are a
	// handful of entries, so the scan is cheaper than the map it replaced.
	for i, d := range t.Deps {
		mode, seen := d.Mode, false
		for k, o := range t.Deps {
			if o.Resource != d.Resource {
				continue
			}
			if k < i {
				seen = true
				break
			}
			if o.Mode == ReadWrite {
				mode = ReadWrite
			}
		}
		if seen {
			continue
		}
		st := j.resources[d.Resource]
		if st == nil {
			st = &resourceState{}
			j.resources[d.Resource] = st
		}
		if st.lastWriter != nil && !st.lastWriter.done {
			st.lastWriter.children = append(st.lastWriter.children, n)
			n.waitCount++
		}
		if mode == Read {
			st.readers = append(st.readers, n)
			continue
		}
		for _, r := range st.readers {
			if r != n && !r.done {
				r.children = append(r.children, n)
				n.waitCount++
			}
		}
		st.lastWriter = n
		st.readers = st.readers[:0]
	}
	if n.waitCount == 0 {
		heap.Push(&s.ready, n)
		s.cond.Broadcast()
	}
}

// Shutdown drains remaining work, across all jobs, and stops the workers.
// The scheduler cannot be used afterwards.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Trace returns the recorded events (only meaningful with WithTrace).
func (s *Scheduler) Trace() []TraceEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceEvent, len(s.events))
	copy(out, s.events)
	return out
}

func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.ready.Len() == 0 {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		n := heap.Pop(&s.ready).(*node)
		// Latch cancellation while still holding the lock; a canceled
		// job's tasks drain through the DAG without running their bodies.
		j := n.job
		j.observeCancelLocked()
		skip := j.canceled
		s.mu.Unlock()

		start := time.Since(s.startTime)
		if !skip {
			n.task.Run(id)
		}
		end := time.Since(s.startTime)

		s.mu.Lock()
		n.done = true
		if s.trace && !skip {
			s.events = append(s.events, TraceEvent{
				Name: n.task.Name, Worker: id, Start: start, End: end, Seq: n.seq,
			})
		}
		for _, c := range n.children {
			c.waitCount--
			if c.waitCount == 0 {
				heap.Push(&s.ready, c)
			}
		}
		n.children = nil
		s.pending--
		j.pending--
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// less orders the ready queue: higher priority first, then submission order
// (FIFO) for determinism.
func less(a, b *node) bool {
	if a.task.Priority != b.task.Priority {
		return a.task.Priority > b.task.Priority
	}
	return a.seq < b.seq
}

type taskHeap []*node

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
