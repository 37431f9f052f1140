package service

import (
	"cmp"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	eigen "repro"
)

// DefaultTTL is how long a MemStore built by New keeps finished jobs when
// the caller supplies no store of their own.
const DefaultTTL = 15 * time.Minute

// DefaultMaxWait caps the long-poll duration of GET /v1/jobs/{id}?wait=...
const DefaultMaxWait = 30 * time.Second

// DefaultMaxBodyBytes caps request bodies: a dense float64 matrix of order
// 8192 is 512 MiB row-major; the default admits up to roughly that order in
// the (4/3-inflating) base64 encoding.
const DefaultMaxBodyBytes = 768 << 20

// Config assembles a Server. Solver is the only required field.
type Config struct {
	// Solver executes the jobs. The server does not own it (Close leaves it
	// running): one Solver may back several servers or serve direct calls
	// concurrently — its admission gate arbitrates either way.
	Solver *eigen.Solver
	// Store persists job records; nil builds a MemStore with DefaultTTL.
	// The server does not close it.
	Store Store
	// APIKeys are the accepted static keys (header X-API-Key, or
	// "Authorization: Bearer <key>"). Empty disables authentication —
	// intended for tests and trusted-network deployments only; cmd/eigserve
	// refuses that configuration unless explicitly forced.
	APIKeys []string
	// MaxWait caps the wait parameter of the long-poll endpoint
	// (0 → DefaultMaxWait).
	MaxWait time.Duration
	// MaxBodyBytes caps request bodies (0 → DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Logf, when non-nil, receives one line per job transition and per
	// refused request.
	Logf func(format string, args ...any)
}

// Server is the HTTP front of one eigen.Solver. It implements http.Handler:
//
//	POST   /v1/jobs             submit a problem        → 202 + job record
//	GET    /v1/jobs/{id}        poll (…?wait=10s long-polls until terminal)
//	GET    /v1/jobs/{id}/result fetch values/vectors    → 200, 409 pending,
//	                            or the mapped error status of a failed job
//	DELETE /v1/jobs/{id}        cancel                  → 202 + job record
//	GET    /v1/healthz          liveness (no auth)
//
// Every job runs as a single-item SolveBatch on the shared Solver, under a
// per-job context; admission (concurrency slots + memory budget) is the
// Solver's own persistent gate.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu     sync.Mutex
	live   map[string]*liveJob
	closed bool
}

// liveJob is the in-memory control block of a non-terminal job: its cancel
// function and a channel closed when it reaches a terminal state (after the
// terminal record is in the store), which is what long-pollers wait on.
type liveJob struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a Server from cfg. The returned server is ready to serve; call
// Close to cancel in-flight jobs and wait for them on shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Solver == nil {
		return nil, errors.New("service: Config.Solver is required")
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore(DefaultTTL)
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		live: make(map[string]*liveJob),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/jobs", s.auth(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.handleJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.auth(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.auth(s.handleCancel))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels every in-flight job and waits for their terminal records to
// land in the store. It does not close the Store or the Solver (the caller
// owns both), and the server refuses new submissions afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// auth wraps a handler with static API-key verification. With no keys
// configured the wrapper is a pass-through.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	if len(s.cfg.APIKeys) == 0 {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("X-API-Key")
		if key == "" {
			if bearer, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
				key = bearer
			}
		}
		for _, k := range s.cfg.APIKeys {
			if subtle.ConstantTimeCompare([]byte(k), []byte(key)) == 1 {
				next(w, r)
				return
			}
		}
		writeError(w, CodeUnauthorized, "missing or invalid API key")
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(&req)
	if err == nil { // one JSON value, then only whitespace
		if _, tok := dec.Token(); tok != io.EOF {
			err = cmp.Or(tok, errors.New("data after the JSON value"))
		}
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, CodeTooLarge, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeError(w, CodeBadRequest, "malformed JSON body: "+err.Error())
		return
	}

	data, code, msg := decodeMatrixPayload(&req, s.cfg.MaxBodyBytes)
	if code != "" {
		writeError(w, code, msg)
		return
	}
	n := req.N
	// The same range predicate the solver enforces, checked at the edge so a
	// bad range is a synchronous 400, not a queued job that fails later.
	if req.IL != 0 || req.IU != 0 {
		if req.IL < 1 || req.IU > n || req.IL > req.IU {
			writeError(w, CodeInvalidRange,
				fmt.Sprintf("invalid eigenpair range [%d, %d] for n=%d (want 1 ≤ il ≤ iu ≤ n)", req.IL, req.IU, n))
			return
		}
	}

	// Admission pricing at the edge: the gate clamps over-budget costs so
	// oversized problems run alone, which is the right call inside one
	// caller's batch but the wrong one for a shared server — refuse instead.
	est := s.cfg.Solver.EstimateWorkspaceBytes(n, !req.ValuesOnly)
	if budget := s.cfg.Solver.MemoryBudget(); budget > 0 && est > budget {
		s.logf("service: refusing n=%d: estimated workspace %d bytes exceeds budget %d", n, est, budget)
		writeError(w, CodeOverBudget,
			fmt.Sprintf("problem needs an estimated %d bytes of workspace, over the server's %d-byte budget", est, budget))
		return
	}

	// Row-major wire order → the solver's column-major layout. Element-wise
	// (not a flat copy): the input must reach the solver exactly as the
	// client indexed it, so the symmetry check judges the client's matrix.
	a := eigen.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, data[i*n+j])
		}
	}

	id, err := newID()
	if err != nil {
		writeError(w, CodeInternal, "cannot generate job ID: "+err.Error())
		return
	}
	job := &Job{
		ID:         id,
		Status:     StatusQueued,
		N:          n,
		ValuesOnly: req.ValuesOnly,
		IL:         req.IL,
		IU:         req.IU,
		Created:    time.Now().UTC(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, CodeSolverClosed, "server is shutting down")
		return
	}
	jctx, cancel := context.WithCancel(s.baseCtx)
	lj := &liveJob{cancel: cancel, done: make(chan struct{})}
	s.live[job.ID] = lj
	s.wg.Add(1)
	s.mu.Unlock()

	if err := s.cfg.Store.Put(job); err != nil {
		s.mu.Lock()
		delete(s.live, job.ID)
		s.mu.Unlock()
		s.wg.Done()
		cancel()
		writeError(w, CodeInternal, "storing job: "+err.Error())
		return
	}
	s.logf("service: job %s queued (n=%d, values_only=%v, range=[%d,%d])", job.ID, n, req.ValuesOnly, req.IL, req.IU)
	go s.run(jctx, job.Clone(), a, lj)

	writeJSON(w, http.StatusAccepted, infoView(job))
}

// run executes one job: a single-item SolveBatch on the shared Solver. The
// terminal record is stored before the done channel closes, so a woken
// long-poller always reads the final state.
func (s *Server) run(ctx context.Context, j *Job, a *eigen.Matrix, lj *liveJob) {
	defer s.wg.Done()
	j.Status = StatusRunning
	j.Started = time.Now().UTC()
	if err := s.cfg.Store.Put(j); err != nil {
		s.logf("service: job %s: storing running state: %v", j.ID, err)
	}

	res := s.cfg.Solver.SolveBatch(ctx, []eigen.BatchItem{{
		A:          a,
		ValuesOnly: j.ValuesOnly,
		IL:         j.IL,
		IU:         j.IU,
	}})[0]

	j.Finished = time.Now().UTC()
	if res.Err == nil {
		j.Status = StatusDone
		j.Values = res.Values
		if res.Vectors != nil {
			rows, cols := res.Vectors.Dims()
			j.Rows, j.Cols = rows, cols
			j.Vectors = make([]float64, 0, rows*cols)
			for c := 0; c < cols; c++ {
				j.Vectors = append(j.Vectors, res.Vectors.Col(c)...)
			}
		}
		s.logf("service: job %s done in %v", j.ID, j.Finished.Sub(j.Started))
	} else {
		j.ErrCode = ClassifyError(res.Err)
		j.ErrMsg = res.Err.Error()
		if j.ErrCode == CodeCanceled {
			j.Status = StatusCanceled
		} else {
			j.Status = StatusFailed
		}
		s.logf("service: job %s %s: %s (%s)", j.ID, j.Status, j.ErrMsg, j.ErrCode)
	}
	if err := s.cfg.Store.Put(j); err != nil {
		s.logf("service: job %s: storing terminal state: %v", j.ID, err)
	}

	s.mu.Lock()
	delete(s.live, j.ID)
	s.mu.Unlock()
	close(lj.done)
}

func (s *Server) liveFor(id string) *liveJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The query is validated before any job state is read: whether a
	// malformed wait is a 400 must not depend on how fast the solve ran.
	var wait time.Duration
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, CodeBadRequest, "bad wait duration "+waitStr)
			return
		}
		wait = min(d, s.cfg.MaxWait)
	}
	j, err := s.cfg.Store.Get(id)
	if err != nil {
		writeError(w, CodeNotFound, "no job "+id)
		return
	}
	if wait > 0 && !j.Status.Terminal() {
		if lj := s.liveFor(id); lj != nil {
			t := time.NewTimer(wait)
			select {
			case <-lj.done:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
		if j, err = s.cfg.Store.Get(id); err != nil {
			writeError(w, CodeNotFound, "no job "+id)
			return
		}
	}
	writeJSON(w, http.StatusOK, infoView(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.cfg.Store.Get(id)
	if err != nil {
		writeError(w, CodeNotFound, "no job "+id)
		return
	}
	switch {
	case j.Status == StatusDone:
		resp := ResultResponse{ID: j.ID, Values: j.Values, Rows: j.Rows, Cols: j.Cols}
		if len(j.Vectors) > 0 {
			resp.VectorsB64 = EncodeFloats(j.Vectors)
		}
		writeJSON(w, http.StatusOK, resp)
	case j.Status.Terminal():
		// Failed or canceled: the stored code carries the stable HTTP status
		// (a NaN payload is a 400 here, never a 500 — see errmap.go).
		code := j.ErrCode
		if code == "" {
			code = CodeInternal
		}
		writeError(w, code, j.ErrMsg)
	default:
		writeError(w, CodePending, fmt.Sprintf("job %s is %s; poll or long-poll until it finishes", id, j.Status))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.cfg.Store.Get(id); err != nil {
		writeError(w, CodeNotFound, "no job "+id)
		return
	}
	if lj := s.liveFor(id); lj != nil {
		lj.cancel()
		s.logf("service: job %s cancel requested", id)
	}
	// Respond with the record as it stands; the transition to canceled is
	// asynchronous (the solver unwinds first), so clients long-poll for it.
	j, err := s.cfg.Store.Get(id)
	if err != nil {
		writeError(w, CodeNotFound, "no job "+id)
		return
	}
	writeJSON(w, http.StatusAccepted, infoView(j))
}

// decodeMatrixPayload extracts and validates the matrix of a submit request,
// returning the row-major entries or a wire error code and message. maxBody
// is the request-body limit: every entry takes at least two bytes on the wire
// ("0," in JSON, 10⅔ characters in base64), so an n with n² > maxBody/2 names
// a matrix no admitted body can carry. It is refused before n² is formed,
// which would overflow for n ≥ 2³².
func decodeMatrixPayload(req *SubmitRequest, maxBody int64) (data []float64, code, msg string) {
	if req.N <= 0 {
		return nil, CodeBadRequest, fmt.Sprintf("n must be positive, got %d", req.N)
	}
	if n := int64(req.N); n > maxBody/2/n {
		return nil, CodeBadRequest, fmt.Sprintf("n=%d is too large: an n×n matrix does not fit in the %d-byte request limit", req.N, maxBody)
	}
	if (req.Data != nil) == (req.DataB64 != "") {
		return nil, CodeBadRequest, "exactly one of data and data_b64 must be set"
	}
	data = req.Data
	if req.DataB64 != "" {
		var err error
		if data, err = DecodeFloats(req.DataB64); err != nil {
			return nil, CodeBadRequest, err.Error()
		}
	}
	if len(data) != req.N*req.N {
		return nil, CodeBadRequest, fmt.Sprintf("matrix data has %d entries, want n²=%d", len(data), req.N*req.N)
	}
	return data, "", ""
}

// newID returns a 128-bit random hex job ID.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// writeJSON writes v with the given status. Encoding failures land in the
// log of the http.Server, not here: by then the status line is committed.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the standard error body for a wire code.
func writeError(w http.ResponseWriter, code, msg string) {
	writeJSON(w, HTTPStatus(code), ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}
