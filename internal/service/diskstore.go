package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DiskStore is the restart-surviving Store: an append-only journal of JSON
// records, one per line, replayed into a map on open. Every Put appends a
// whole-job snapshot, so the journal is a pure log — no in-place rewrites, no
// index, crash-safe by construction (a torn trailing record is detected on
// replay and truncated away).
//
// Two consequences worth knowing:
//
//   - Jobs that were queued or running when the process died cannot be
//     resumed (the input matrix is never journaled), so replay marks them
//     failed with ErrCode "interrupted". Clients see a stable terminal state
//     instead of a job stuck in "running" forever.
//   - The journal only grows (later snapshots shadow earlier ones at read
//     time). A compaction pass is a natural follow-up; for the job sizes the
//     result payloads dominate and a line per transition is cheap.
type DiskStore struct {
	mu     sync.Mutex
	file   *os.File
	enc    *json.Encoder
	jobs   map[string]*Job
	closed bool
}

// diskRecord is one journal line. A line without a job (a tombstone an older
// journal may hold, say) replays as nothing.
type diskRecord struct {
	Job *Job `json:"job,omitempty"`
}

// CodeInterrupted marks jobs found non-terminal during journal replay: the
// server died under them and their inputs are gone.
const CodeInterrupted = "interrupted"

// NewDiskStore opens (creating as needed) the journal at path and replays
// it. Parent directories are created. Non-terminal jobs found in the journal
// are marked failed/interrupted, durably (the markings are appended before
// NewDiskStore returns).
func NewDiskStore(path string) (*DiskStore, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("service: creating journal directory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: opening journal: %w", err)
	}
	d := &DiskStore{file: f, jobs: make(map[string]*Job)}

	// Replay. A decode error means a torn trailing record (crash mid-append):
	// keep everything before it and truncate the tail so the journal is clean
	// for appending.
	dec := json.NewDecoder(f)
	var good int64
	for {
		var rec diskRecord
		if err := dec.Decode(&rec); err != nil {
			if err != io.EOF {
				if terr := f.Truncate(good); terr != nil {
					f.Close()
					return nil, fmt.Errorf("service: truncating torn journal tail: %w", terr)
				}
			}
			break
		}
		good = dec.InputOffset()
		if rec.Job != nil {
			d.jobs[rec.Job.ID] = rec.Job
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: seeking journal end: %w", err)
	}
	d.enc = json.NewEncoder(f)

	// Jobs interrupted by the previous process get a durable terminal state.
	for _, j := range d.jobs {
		if j.Status.Terminal() {
			continue
		}
		j.Status = StatusFailed
		j.ErrCode = CodeInterrupted
		j.ErrMsg = "service: server restarted before the job finished"
		if err := d.enc.Encode(diskRecord{Job: j}); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: journaling interrupted job: %w", err)
		}
	}
	return d, nil
}

// Put implements Store.
func (d *DiskStore) Put(j *Job) error {
	c := j.Clone()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("service: store is closed")
	}
	if err := d.enc.Encode(diskRecord{Job: c}); err != nil {
		return fmt.Errorf("service: appending job record: %w", err)
	}
	d.jobs[c.ID] = c
	return nil
}

// Get implements Store.
func (d *DiskStore) Get(id string) (*Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.Clone(), nil
}

// Close implements Store.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.file.Close()
}
