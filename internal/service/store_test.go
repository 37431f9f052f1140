package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func doneJob(id string) *Job {
	return &Job{
		ID:     id,
		Status: StatusDone,
		N:      2,
		Values: []float64{1, 2},
	}
}

// TestMemStoreBasics covers Put/Get round trips and the copy semantics of Get
// (mutating a returned job must not change the store).
func TestMemStoreBasics(t *testing.T) {
	m := NewMemStore(0)
	defer m.Close()

	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(unknown) = %v, want ErrNotFound", err)
	}
	j := doneJob("a")
	if err := m.Put(j); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	got.Values[0] = 99
	got.Status = StatusFailed
	again, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if again.Values[0] != 1 || again.Status != StatusDone {
		t.Fatal("mutating a Get result leaked into the store")
	}
}

// TestMemStoreTTL pins the eviction contract: terminal jobs expire after
// the TTL, live (queued/running) jobs never do.
func TestMemStoreTTL(t *testing.T) {
	m := NewMemStore(40 * time.Millisecond)
	defer m.Close()

	if err := m.Put(doneJob("fin")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(&Job{ID: "live", Status: StatusRunning, N: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("fin"); err != nil {
		t.Fatalf("fresh terminal job already gone: %v", err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := m.Get("fin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("terminal job survived its TTL: %v", err)
	}
	if _, err := m.Get("live"); err != nil {
		t.Fatalf("running job must never be evicted: %v", err)
	}
	// A live job turning terminal starts its TTL clock at that transition.
	j := doneJob("live")
	if err := m.Put(j); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := m.Get("live"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job not evicted after turning terminal: %v", err)
	}
}

// TestDiskStoreRestart is the restart-survival contract: finished jobs
// survive close + reopen, and jobs caught mid-flight by the restart come back
// terminal as failed/interrupted instead of being stuck in "running" forever.
func TestDiskStoreRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	d, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fin := doneJob("fin")
	fin.Vectors = []float64{1, 0, 0, 1}
	fin.Rows, fin.Cols = 2, 2
	for _, j := range []*Job{fin, {ID: "mid", Status: StatusRunning, N: 8}} {
		if err := d.Put(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Get("fin")
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || len(got.Values) != 2 || got.Values[1] != 2 || len(got.Vectors) != 4 {
		t.Fatalf("finished job did not survive restart intact: %+v", got)
	}
	mid, err := d2.Get("mid")
	if err != nil {
		t.Fatal(err)
	}
	if mid.Status != StatusFailed || mid.ErrCode != CodeInterrupted {
		t.Fatalf("mid-flight job after restart: status=%s code=%s, want failed/interrupted", mid.Status, mid.ErrCode)
	}

	// The interrupted marking is durable: a third open still sees it.
	d2.Close()
	d3, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	mid, err = d3.Get("mid")
	if err != nil {
		t.Fatal(err)
	}
	if mid.Status != StatusFailed || mid.ErrCode != CodeInterrupted {
		t.Fatalf("interrupted marking not durable: %+v", mid)
	}
}

// TestDiskStoreTornTail simulates a crash mid-append: a truncated trailing
// record must be dropped on replay (keeping everything before it) and the
// journal must keep working for new appends.
func TestDiskStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	d, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(doneJob("ok")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":{"id":"torn","stat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := NewDiskStore(path)
	if err != nil {
		t.Fatalf("torn journal must open cleanly: %v", err)
	}
	defer d2.Close()
	if _, err := d2.Get("ok"); err != nil {
		t.Fatalf("intact record lost with the torn tail: %v", err)
	}
	if _, err := d2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatal("torn record must not replay")
	}
	if err := d2.Put(doneJob("after")); err != nil {
		t.Fatalf("journal unusable after tail repair: %v", err)
	}
	d2.Close()
	d3, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, err := d3.Get("after"); err != nil {
		t.Fatalf("post-repair append did not persist: %v", err)
	}
}
