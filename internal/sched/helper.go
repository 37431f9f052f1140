package sched

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Helper lends a serial section of a job one more worker: one top-priority
// task that runs the halves the caller hands it through Split. The task may
// start late (queued behind other work) or never (dropped by a canceled job
// or a shut-down scheduler), so the caller runs any half the task has not
// claimed itself. End frees the worker. A long-running half polls Stopped,
// and its partner may wait on it only while Started or the job is live. A
// nil *Helper is valid: Split runs both halves in order on the caller.
type Helper struct {
	state  atomic.Int32
	stop   atomic.Bool
	posted atomic.Int64 // halves posted by Split
	taken  atomic.Int64 // halves claimed, by the task or by the caller
	done   atomic.Int64 // halves the task has run
	fn     func()       // the half numbered posted
}

// The states of a helper's task, the started ones last.
const (
	helperIdle     = iota // submitted, not started
	helperClaimed         // never to run: End came first
	helperRunning         // started; End waits for helperFinished
	helperFinished        // returned
)

// Helper submits the helper task of a section on j and returns its handle,
// or nil when j has fewer than two workers. name labels the task in traces.
func (j *Job) Helper(name string) *Helper {
	if j.Workers() < 2 {
		return nil
	}
	h := &Helper{}
	j.Submit(Task{Name: name, Priority: math.MaxInt, Run: func(int) { h.serve() }})
	return h
}

// Split runs mine on the calling goroutine and theirs on the helper's task,
// unless the task has not claimed theirs by the time mine returns: then the
// caller runs it too. Split returns when both have run.
func (h *Helper) Split(mine, theirs func()) {
	if h == nil {
		mine()
		theirs()
		return
	}
	k := h.posted.Load() + 1
	h.fn = theirs
	h.posted.Store(k)
	mine()
	if h.taken.CompareAndSwap(k-1, k) {
		theirs()
		return
	}
	for h.done.Load() < k {
		runtime.Gosched()
	}
}

// Started reports whether the helper's task has begun to run: once it has,
// it goes on claiming posted halves until End.
func (h *Helper) Started() bool { return h != nil && h.state.Load() >= helperRunning }

// Stopped reports whether End has been called: the stop signal a
// long-running half polls.
func (h *Helper) Stopped() bool { return h != nil && h.stop.Load() }

// End stops the helper's task and waits until it has returned, or claims it
// if it has not started, so that it never runs. After End a Split runs both
// halves on the caller. End may be called more than once.
func (h *Helper) End() {
	if h == nil {
		return
	}
	h.stop.Store(true)
	if h.state.CompareAndSwap(helperIdle, helperClaimed) {
		return
	}
	for h.state.Load() == helperRunning {
		runtime.Gosched()
	}
}

// serve is the helper's task: it runs each posted half it claims until End
// stops it.
func (h *Helper) serve() {
	if !h.state.CompareAndSwap(helperIdle, helperRunning) {
		return
	}
	defer h.state.Store(helperFinished)
	var seen int64
	for {
		k := h.posted.Load()
		if k == seen {
			if h.stop.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		seen = k
		if h.taken.CompareAndSwap(k-1, k) {
			h.fn()
			h.done.Store(k)
		}
	}
}
