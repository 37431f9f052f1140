package service

import (
	"errors"
	"sync"
	"time"
)

// ErrNotFound is returned by Store.Get for an unknown job ID — including
// jobs that existed once but were TTL-evicted.
var ErrNotFound = errors.New("service: job not found")

// Store persists job records. The server writes whole-job snapshots on every
// status transition and reads them back for the status/result endpoints, so
// the interface is a plain keyed record store — deliberately small, so real
// backends (an SQL table, Redis, an object store) can slot in behind it
// later without touching the HTTP layer.
//
// Implementations must be safe for concurrent use. Get returns a private
// copy: mutating a returned job never changes the stored record.
type Store interface {
	// Put inserts or replaces the record with j.ID. The store keeps its own
	// copy; the caller may reuse j afterwards.
	Put(j *Job) error
	// Get returns a copy of the record, or ErrNotFound.
	Get(id string) (*Job, error)
	// Close releases the store's resources. The store is unusable after.
	Close() error
}

// MemStore is the in-memory Store: a map with TTL eviction of finished
// jobs. Terminal records (done/failed/canceled) expire ttl after they enter
// the store; queued/running records never expire — eviction must not orphan
// a live solve. A background janitor sweeps on a fraction of the TTL, and
// reads double-check expiry so a record never outlives its TTL by more than
// a read.
type MemStore struct {
	ttl time.Duration

	mu     sync.Mutex
	jobs   map[string]*Job
	expiry map[string]time.Time
	stop   chan struct{}
	closed bool
}

// NewMemStore builds a MemStore evicting terminal jobs after ttl
// (ttl <= 0: keep forever, no janitor goroutine).
func NewMemStore(ttl time.Duration) *MemStore {
	m := &MemStore{
		ttl:    ttl,
		jobs:   make(map[string]*Job),
		expiry: make(map[string]time.Time),
		stop:   make(chan struct{}),
	}
	if ttl > 0 {
		interval := ttl / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		go m.janitor(interval)
	}
	return m
}

func (m *MemStore) janitor(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.mu.Lock()
			for id, at := range m.expiry {
				if now.After(at) {
					delete(m.jobs, id)
					delete(m.expiry, id)
				}
			}
			m.mu.Unlock()
		}
	}
}

// Put implements Store.
func (m *MemStore) Put(j *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("service: store is closed")
	}
	m.jobs[j.ID] = j.Clone()
	if m.ttl > 0 && j.Status.Terminal() {
		m.expiry[j.ID] = time.Now().Add(m.ttl)
	} else {
		delete(m.expiry, j.ID)
	}
	return nil
}

// Get implements Store.
func (m *MemStore) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if ok {
		if at, exp := m.expiry[id]; exp && time.Now().After(at) {
			delete(m.jobs, id)
			delete(m.expiry, id)
			ok = false
		}
	}
	if !ok {
		return nil, ErrNotFound
	}
	return j.Clone(), nil
}

// Close implements Store: it stops the janitor and drops every record.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	close(m.stop)
	m.jobs, m.expiry = nil, nil
	return nil
}
