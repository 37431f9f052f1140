package main

import (
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer of the program. Spans of one operation share Solve; Parent is the
// ID of the span that caused this one, or -1 for an operation's root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Solve  int     `json:"solve"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder's epoch
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out only when the run
// ends, so recording costs two clock reads and one append per span.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, solve int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Solve: solve, Name: name, Start: time.Since(r.epoch).Seconds()})
	return id
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// in runs fn inside a span.
func (r *recorder) in(name string, parent, solve int, fn func()) float64 {
	id := r.begin(name, parent, solve)
	fn()
	return r.end(id)
}

// selfTimes returns, per span ID, the span's duration minus the time its
// direct children cover. The benchmark's children of one parent never
// overlap (they are sequential calls), so the covered time is their sum.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanOut is a span as -trace-out writes it: with its self time beside it.
type spanOut struct {
	span
	Self float64 `json:"self_s"`
}

func withSelf(spans []span) []spanOut {
	self := selfTimes(spans)
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		out[i] = spanOut{s, self[s.ID]}
	}
	return out
}
