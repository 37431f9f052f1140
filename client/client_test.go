// Integration tests: every test starts a real server on a loopback listener
// (httptest wraps net.Listen("tcp", "127.0.0.1:0")) backed by a real
// eigen.Solver, and drives it through the public client only — submit, poll,
// long-poll, result, cancel — under -race via scripts/check.sh.
package client

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	eigen "repro"
	"repro/internal/service"
)

// testOpts are the solver options shared by the served and the reference
// solvers, so the bitwise comparison compares like with like.
func testOpts() *eigen.Options {
	return &eigen.Options{Workers: 2}
}

// startServer launches a service over a fresh solver and returns a client
// for it. Extra solver options are merged via mutate.
func startServer(t *testing.T, mutate func(*eigen.Options), cfg service.Config) (*Client, *eigen.Solver) {
	t.Helper()
	opts := testOpts()
	if mutate != nil {
		mutate(opts)
	}
	solver := eigen.NewSolver(opts)
	t.Cleanup(func() { solver.Close() })
	cfg.Solver = solver
	if cfg.Store == nil {
		store := service.NewMemStore(0)
		t.Cleanup(func() { store.Close() })
		cfg.Store = store
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	key := ""
	if len(cfg.APIKeys) > 0 {
		key = cfg.APIKeys[0]
	}
	c := New(ts.URL, key)
	c.waitQuantum = 250 * time.Millisecond
	return c, solver
}

func randSym(rng *rand.Rand, n int) *eigen.Matrix {
	a := eigen.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			a.SetSym(i, j, rng.NormFloat64())
		}
	}
	return a
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matrixEqual compares two matrices bit for bit through the public API.
func matrixEqual(a, b *eigen.Matrix) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for j := 0; j < ac; j++ {
		if !sameFloats(a.Col(j), b.Col(j)) {
			return false
		}
	}
	return true
}

// TestRoundTripBitwise is the core service guarantee: submit → long-poll →
// result through a real loopback HTTP server returns values and vectors
// bitwise equal to calling Solver.Eig directly with the same options. Full
// spectrum, values-only, and range jobs all round-trip.
func TestRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, _ := startServer(t, nil, service.Config{APIKeys: []string{"k"}})
	ref := eigen.NewSolver(testOpts())
	defer ref.Close()
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	// Full spectrum with vectors.
	aFull := randSym(rng, 96)
	got, err := c.Solve(ctx, aFull, nil)
	if err != nil {
		t.Fatalf("full solve via service: %v", err)
	}
	want, err := ref.Eig(aFull)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Values, want.Values) {
		t.Fatal("full: values differ from direct Solver.Eig")
	}
	if got.Vectors == nil || !matrixEqual(got.Vectors, want.Vectors) {
		t.Fatal("full: vectors differ from direct Solver.Eig")
	}

	// Values-only: no vector payload at all.
	aVals := randSym(rng, 64)
	got, err = c.Solve(ctx, aVals, &SubmitOptions{ValuesOnly: true})
	if err != nil {
		t.Fatalf("values-only via service: %v", err)
	}
	wantVals, err := ref.EigValues(aVals)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Values, wantVals) {
		t.Fatal("values-only: values differ")
	}
	if got.Vectors != nil {
		t.Fatal("values-only job returned vectors")
	}

	// Partial spectrum.
	aRange := randSym(rng, 48)
	got, err = c.Solve(ctx, aRange, &SubmitOptions{IL: 3, IU: 20})
	if err != nil {
		t.Fatalf("range via service: %v", err)
	}
	wantR, err := ref.EigRange(aRange, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Values, wantR.Values) || !matrixEqual(got.Vectors, wantR.Vectors) {
		t.Fatal("range: result differs from direct EigRange")
	}
}

// TestCancelMidSolveFreesSlot submits a large job to a BatchConcurrency=1
// server, cancels it mid-solve, and requires (a) the job reaches the
// canceled state well within the deadline, and (b) the admission slot it
// held is released — proven by a second job that can only run in that slot.
func TestCancelMidSolveFreesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c, _ := startServer(t, func(o *eigen.Options) { o.BatchConcurrency = 1 }, service.Config{})
	ctx := context.Background()

	big, err := c.Submit(ctx, randSym(rng, 512), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Catch it mid-solve: wait for the running transition plus a beat.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Job(ctx, big.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == string(service.StatusRunning) {
			break
		}
		if j.Terminal() {
			t.Fatalf("n=512 job terminal (%s) before it could be canceled", j.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	cancelAt := time.Now()
	if _, err := c.Cancel(ctx, big.ID); err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithTimeout(ctx, 5*time.Second)
	defer stop()
	j, err := c.Wait(wctx, big.ID)
	if err != nil {
		t.Fatalf("canceled job did not reach a terminal state in time: %v", err)
	}
	if j.Status != string(service.StatusCanceled) || j.ErrCode != service.CodeCanceled {
		t.Fatalf("after cancel: status=%s code=%s, want canceled/canceled", j.Status, j.ErrCode)
	}
	if took := time.Since(cancelAt); took > 5*time.Second {
		t.Fatalf("cancel took %v, want well under the 5s deadline", took)
	}

	// The result of a canceled job is the stable 499/canceled mapping.
	if _, err := c.Result(ctx, big.ID); err == nil {
		t.Fatal("result of a canceled job must error")
	} else if ae, ok := AsAPIError(err); !ok || ae.StatusCode != service.StatusClientClosedRequest || ae.Code != service.CodeCanceled {
		t.Fatalf("canceled result error = %v, want 499/canceled", err)
	}

	// Slot release: with BatchConcurrency=1 this job needs the canceled
	// job's slot. A short deadline makes a leaked slot a loud failure.
	sctx, stop2 := context.WithTimeout(ctx, 30*time.Second)
	defer stop2()
	if _, err := c.Solve(sctx, randSym(rng, 32), nil); err != nil {
		t.Fatalf("job after cancel did not run — admission slot leaked? %v", err)
	}
}

// TestAuthRejected pins the client-visible auth failure: a wrong key is a
// typed 401 APIError on every endpoint, and no job is created.
func TestAuthRejected(t *testing.T) {
	c, _ := startServer(t, nil, service.Config{APIKeys: []string{"right"}})
	bad := New(c.baseURL, "wrong")
	ctx := context.Background()

	if _, err := bad.Submit(ctx, eigen.NewMatrixFrom(2, []float64{2, 1, 1, 2}), nil); err == nil {
		t.Fatal("submit with wrong key must fail")
	} else if ae, ok := AsAPIError(err); !ok || ae.StatusCode != 401 || ae.Code != service.CodeUnauthorized {
		t.Fatalf("submit error = %v, want 401/unauthorized", err)
	}
	if _, err := bad.Job(ctx, "any"); err == nil {
		t.Fatal("poll with wrong key must fail")
	} else if ae, ok := AsAPIError(err); !ok || ae.StatusCode != 401 {
		t.Fatalf("poll error = %v, want 401", err)
	}
	// The right key still works on the same server.
	if _, err := c.Solve(ctx, eigen.NewMatrixFrom(2, []float64{2, 1, 1, 2}), nil); err != nil {
		t.Fatalf("correct key rejected: %v", err)
	}
}

// TestOverBudgetRefused pins the admission-pricing refusal: a problem whose
// workspace estimate exceeds the solver's entire MemoryBudget is refused at
// submit with a typed 413/over_budget — it never becomes a job — while
// problems under the budget sail through on the same server.
func TestOverBudgetRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c, solver := startServer(t, func(o *eigen.Options) { o.MemoryBudget = 1 << 20 }, service.Config{})
	ctx := context.Background()

	if est := solver.EstimateWorkspaceBytes(256, true); est <= solver.MemoryBudget() {
		t.Fatalf("test premise broken: n=256 estimate %d fits budget %d", est, solver.MemoryBudget())
	}
	_, err := c.Submit(ctx, randSym(rng, 256), nil)
	if err == nil {
		t.Fatal("over-budget submit must be refused")
	}
	ae, ok := AsAPIError(err)
	if !ok || ae.StatusCode != 413 || ae.Code != service.CodeOverBudget {
		t.Fatalf("over-budget error = %v, want 413/over_budget", err)
	}

	if est := solver.EstimateWorkspaceBytes(64, true); est > solver.MemoryBudget() {
		t.Fatalf("test premise broken: n=64 estimate %d over budget %d", est, solver.MemoryBudget())
	}
	if _, err := c.Solve(ctx, randSym(rng, 64), nil); err != nil {
		t.Fatalf("under-budget job refused: %v", err)
	}
}

// TestNotFiniteRejected drives the typed error mapping end to end over the
// wire: NaN reaches the solver via the binary encoding, the job fails with
// the solver's own *NotFiniteError, and the client sees a stable
// 400/not_finite APIError — never a 500.
func TestNotFiniteRejected(t *testing.T) {
	c, _ := startServer(t, nil, service.Config{})
	ctx := context.Background()

	a := eigen.NewMatrix(2)
	a.SetSym(0, 0, 1)
	a.SetSym(1, 1, math.NaN())
	_, err := c.Solve(ctx, a, nil)
	if err == nil {
		t.Fatal("NaN input must fail")
	}
	ae, ok := AsAPIError(err)
	if !ok || ae.StatusCode != 400 || ae.Code != service.CodeNotFinite {
		t.Fatalf("NaN error = %v, want 400/not_finite", err)
	}
}

// TestConcurrentClients hammers one server from many goroutines (run under
// -race by scripts/check.sh): every job must complete and match its direct
// reference solve bitwise, with all clients sharing one solver, one
// admission gate, and one store.
func TestConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c, _ := startServer(t, func(o *eigen.Options) { o.BatchConcurrency = 3 }, service.Config{APIKeys: []string{"k"}})
	ref := eigen.NewSolver(testOpts())
	defer ref.Close()

	sizes := []int{24, 33, 40, 51}
	mats := make([]*eigen.Matrix, len(sizes))
	wantVals := make([][]float64, len(sizes))
	wantVecs := make([]*eigen.Matrix, len(sizes))
	for i, n := range sizes {
		mats[i] = randSym(rng, n)
		res, err := ref.Eig(mats[i])
		if err != nil {
			t.Fatal(err)
		}
		wantVals[i], wantVecs[i] = res.Values, res.Vectors
	}

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(sizes))
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := range sizes {
				idx := (g + i) % len(sizes)
				res, err := c.Solve(ctx, mats[idx], nil)
				if err != nil {
					errs <- err
					continue
				}
				if !sameFloats(res.Values, wantVals[idx]) || !matrixEqual(res.Vectors, wantVecs[idx]) {
					errs <- &APIError{Code: "mismatch", Message: "result diverged from reference"}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent client: %v", err)
	}
}

// TestDiskStoreRestartSurvival proves the restart story end to end: results
// served from a disk-journal store survive a full server teardown and are
// still fetchable — bit for bit — through a brand-new server over the same
// journal.
func TestDiskStoreRestartSurvival(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	path := t.TempDir() + "/jobs.jsonl"
	store, err := service.NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}

	solver := eigen.NewSolver(testOpts())
	defer solver.Close()
	svc, err := service.New(service.Config{Solver: solver, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	c := New(ts.URL, "")
	c.waitQuantum = 250 * time.Millisecond
	ctx := context.Background()

	a := randSym(rng, 32)
	job, err := c.Submit(ctx, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	first, err := c.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Full teardown: HTTP server, service, store.
	ts.Close()
	svc.Close()
	store.Close()

	store2, err := service.NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	svc2, err := service.New(service.Config{Solver: solver, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	c2 := New(ts2.URL, "")

	j, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if j.Status != string(service.StatusDone) {
		t.Fatalf("restarted job status %s, want done", j.Status)
	}
	second, err := c2.Result(ctx, job.ID)
	if err != nil {
		t.Fatalf("result lost across restart: %v", err)
	}
	if !sameFloats(first.Values, second.Values) || !matrixEqual(first.Vectors, second.Vectors) {
		t.Fatal("result changed across restart")
	}
}
