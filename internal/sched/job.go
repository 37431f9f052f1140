package sched

import (
	"context"
	"errors"
)

// ErrStopped is the sticky error of a job whose task was submitted after the
// scheduler shut down; the task is dropped rather than run (and rather than
// panicking the submitter).
var ErrStopped = errors.New("sched: scheduler is shut down")

// Job is one logical stream of tasks submitted to a (possibly shared)
// Scheduler: it carries its own dependence frontier, completion count, and
// cancellation context. Jobs are what make a Scheduler reusable across
// solves and safe to share between concurrent solves — two jobs never
// interfere through resource IDs, and each Wait drains only its own tasks.
//
// A Job also abstracts sequential execution: a job created with Inline (or
// a nil *Job) runs every task synchronously at Submit, so stage code is
// written once against the Job API and works in all three modes
// (sequential, scheduled, canceled).
type Job struct {
	s   *Scheduler // nil → inline execution
	ctx context.Context

	// Scheduler-mode state, guarded by s.mu.
	resources map[int]*resourceState
	pending   int

	// canceled/err: in inline mode touched only by the submitting
	// goroutine; in scheduler mode guarded by s.mu.
	canceled bool
	err      error
}

// NewJob creates a job on the scheduler. ctx cancellation makes the job's
// remaining tasks no-ops: they drain through the DAG without running their
// bodies, Wait returns ctx's error, and the scheduler stays usable for
// other jobs. A nil ctx means no cancellation.
func (s *Scheduler) NewJob(ctx context.Context) *Job {
	return &Job{s: s, ctx: ctx, resources: make(map[int]*resourceState)}
}

// Inline creates a schedulerless job: Submit runs each task immediately on
// the calling goroutine, honoring ctx between tasks. Use a nil *Job instead
// when cancellation is not needed.
func Inline(ctx context.Context) *Job {
	return &Job{ctx: ctx}
}

// Parallel reports whether tasks run on a scheduler worker pool. Stage code
// uses it to pick the allocation-free sequential path.
func (j *Job) Parallel() bool { return j != nil && j.s != nil }

// Traced reports whether the executing scheduler records a TraceEvent per
// task. Trace events are the only consumer of Task.Name, so stage code that
// submits thousands of tasks may leave the name empty when this is false
// rather than allocate a string per task.
func (j *Job) Traced() bool { return j != nil && j.s != nil && j.s.trace }

// Workers returns the width of the executing pool (1 for inline/nil jobs).
func (j *Job) Workers() int {
	if j == nil || j.s == nil {
		return 1
	}
	return j.s.workers
}

// Canceled reports whether the job's context has been canceled. It is the
// cheap check sequential stage loops make between kernels; once it returns
// true the job's error is sticky.
func (j *Job) Canceled() bool {
	if j == nil {
		return false
	}
	if j.s != nil {
		j.s.mu.Lock()
		defer j.s.mu.Unlock()
		j.observeCancelLocked()
		return j.canceled
	}
	j.observeCancelLocked()
	return j.canceled
}

// observeCancelLocked latches ctx cancellation into the job state. In
// scheduler mode the caller holds s.mu; in inline mode only the submitting
// goroutine touches the state.
func (j *Job) observeCancelLocked() {
	if j.canceled || j.ctx == nil {
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.canceled = true
		j.err = err
	}
}

// Submit registers a task on the job. Inline jobs (and nil jobs) run it
// immediately; canceled jobs drop the body.
func (j *Job) Submit(t Task) {
	if t.Run == nil {
		panic("sched: task without body")
	}
	if j == nil {
		t.Run(0)
		return
	}
	if j.s == nil {
		j.observeCancelLocked()
		if j.canceled {
			return
		}
		t.Run(0)
		return
	}
	j.s.submit(j, t)
}

// Wait blocks until every task submitted on the job has finished (or been
// skipped due to cancellation) and returns the job's error: nil, or the
// context error if the job was canceled mid-DAG.
func (j *Job) Wait() error {
	if j == nil {
		return nil
	}
	if j.s == nil {
		return j.err
	}
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for j.pending > 0 {
		s.cond.Wait()
	}
	j.observeCancelLocked()
	return j.err
}

// Err returns the job's sticky error without waiting (nil while healthy).
func (j *Job) Err() error {
	if j == nil {
		return nil
	}
	if j.s == nil {
		j.observeCancelLocked()
		return j.err
	}
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	j.observeCancelLocked()
	return j.err
}
