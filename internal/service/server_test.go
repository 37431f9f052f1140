package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	eigen "repro"
)

func testServer(t *testing.T, opts *eigen.Options, cfg Config) *Server {
	t.Helper()
	if opts == nil {
		opts = &eigen.Options{Workers: 2}
	}
	solver := eigen.NewSolver(opts)
	t.Cleanup(func() { solver.Close() })
	cfg.Solver = solver
	if cfg.Store == nil {
		store := NewMemStore(0)
		t.Cleanup(func() { store.Close() })
		cfg.Store = store
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func decodeErr(t *testing.T, rr *httptest.ResponseRecorder) ErrorInfo {
	t.Helper()
	var eb ErrorBody
	if err := json.NewDecoder(rr.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not the standard shape: %v (body %q)", err, rr.Body.String())
	}
	return eb.Error
}

// TestServerAuth pins the auth wrapper: no key → 401, wrong key → 401,
// either accepted header form → through, and health stays unauthenticated.
func TestServerAuth(t *testing.T) {
	srv := testServer(t, nil, Config{APIKeys: []string{"open-sesame"}})

	cases := []struct {
		name   string
		header func(r *http.Request)
		status int
	}{
		{"no key", func(*http.Request) {}, http.StatusUnauthorized},
		{"wrong key", func(r *http.Request) { r.Header.Set("X-API-Key", "guess") }, http.StatusUnauthorized},
		{"wrong bearer", func(r *http.Request) { r.Header.Set("Authorization", "Bearer guess") }, http.StatusUnauthorized},
		{"header key", func(r *http.Request) { r.Header.Set("X-API-Key", "open-sesame") }, http.StatusNotFound},
		{"bearer key", func(r *http.Request) { r.Header.Set("Authorization", "Bearer open-sesame") }, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest("GET", "/v1/jobs/xyz", nil)
			tc.header(r)
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, r)
			if rr.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.status, rr.Body)
			}
			if tc.status == http.StatusUnauthorized {
				if e := decodeErr(t, rr); e.Code != CodeUnauthorized {
					t.Fatalf("code %q, want %q", e.Code, CodeUnauthorized)
				}
			}
		})
	}

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("health without key: %d, want 200", rr.Code)
	}
}

// TestServerSubmitValidation walks the structural 4xx ladder of the submit
// endpoint: malformed JSON, bad n, missing/duplicate/mis-sized payloads, an
// invalid range, and an oversized body.
func TestServerSubmitValidation(t *testing.T) {
	srv := testServer(t, nil, Config{MaxBodyBytes: 4096})

	post := func(body string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, r)
		return rr
	}

	cases := []struct {
		name string
		body string
		code string
	}{
		{"malformed JSON", `{"n": 2,`, CodeBadRequest},
		{"zero n", `{"n": 0, "data": []}`, CodeBadRequest},
		{"negative n", `{"n": -3, "data": [1]}`, CodeBadRequest},
		{"no payload", `{"n": 2}`, CodeBadRequest},
		{"both payloads", `{"n": 1, "data": [1], "data_b64": "AAAAAAAA8D8="}`, CodeBadRequest},
		{"wrong length", `{"n": 2, "data": [1, 2, 3]}`, CodeBadRequest},
		{"bad base64", `{"n": 1, "data_b64": "!!!"}`, CodeBadRequest},
		{"invalid range", `{"n": 2, "data": [1, 0, 0, 2], "il": 2, "iu": 1}`, CodeInvalidRange},
		{"range beyond n", `{"n": 2, "data": [1, 0, 0, 2], "il": 1, "iu": 5}`, CodeInvalidRange},
		{"oversized body", `{"n": 2, "data": [` + strings.Repeat("1,", 4000) + `1]}`, CodeTooLarge},
		{"n² wraps to zero", `{"n": 4294967296, "data": []}`, CodeBadRequest},
		{"n² wraps negative", `{"n": 3037000500, "data": []}`, CodeBadRequest},
		{"n too large for the body limit", `{"n": 46, "data": []}`, CodeBadRequest},
		{"trailing bytes", `{"n": 1, "data": [1]}xyz`, CodeBadRequest},
		{"second JSON value", `{"n": 1, "data": [1]}{"n": 2}`, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(tc.body)
			e := decodeErr(t, rr)
			if e.Code != tc.code {
				t.Fatalf("code %q (status %d, msg %q), want %q", e.Code, rr.Code, e.Message, tc.code)
			}
			if rr.Code < 400 || rr.Code >= 500 {
				t.Fatalf("status %d, want a 4xx", rr.Code)
			}
		})
	}
}

// TestServerJobEndpoints covers the non-solve paths of the job endpoints:
// unknown IDs are 404, a queued job's record carries no timestamp it has not
// reached, a result requested too early is 409/pending, a bad wait duration
// is 400, and cancel of an unknown job is 404.
func TestServerJobEndpoints(t *testing.T) {
	srv := testServer(t, nil, Config{})

	req := func(method, path string, want int) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		if rr.Code != want {
			t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rr.Code, want, rr.Body)
		}
		return rr
	}

	req("GET", "/v1/jobs/nope", http.StatusNotFound)
	req("GET", "/v1/jobs/nope/result", http.StatusNotFound)
	req("DELETE", "/v1/jobs/nope", http.StatusNotFound)

	// A real job, still queued/running: result must be 409 pending.
	r := httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"n": 2, "data": [4, 1, 1, 3]}`))
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, r)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", rr.Code, rr.Body)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"started", "finished"} {
		if v, ok := keys[k]; ok {
			t.Fatalf("queued job carries %q: %s", k, v)
		}
	}
	var j Job
	if err := json.NewDecoder(rr.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Status != StatusQueued {
		t.Fatalf("submit returned %+v", j)
	}
	if len(j.Values) != 0 {
		t.Fatal("status view must not carry result payloads")
	}

	// A malformed wait is a 400 whatever state the job is in: here the 2×2
	// solve may or may not have finished already, below it certainly has.
	badWait := func() {
		for _, q := range []string{"banana", "-1s"} {
			rr := req("GET", "/v1/jobs/"+j.ID+"?wait="+q, http.StatusBadRequest)
			if e := decodeErr(t, rr); e.Code != CodeBadRequest {
				t.Fatalf("wait=%s: code %q", q, e.Code)
			}
		}
	}
	badWait()

	// Long-poll until done, then fetch the result.
	rr = req("GET", "/v1/jobs/"+j.ID+"?wait=10s", http.StatusOK)
	if err := json.NewDecoder(rr.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone {
		t.Fatalf("after wait: status %s, want done", j.Status)
	}
	badWait()
	rr = req("GET", "/v1/jobs/"+j.ID+"/result", http.StatusOK)
	var res ResultResponse
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 || res.Rows != 2 || res.Cols != 2 {
		t.Fatalf("result shape: %+v", res)
	}

	// Cancel after terminal: a no-op 202 echo of the record.
	req("DELETE", "/v1/jobs/"+j.ID, http.StatusAccepted)
}

// TestServerNaNPayloadMapsTo400 is the end-to-end form of the errmap
// contract: a NaN smuggled in via the binary encoding fails the job with
// the solver's typed *NotFiniteError, and the result endpoint serves it as
// a stable 400/not_finite — not a 500.
func TestServerNaNPayloadMapsTo400(t *testing.T) {
	srv := testServer(t, nil, Config{})

	data := []float64{1, 0, 0, math.NaN()}
	body, err := json.Marshal(SubmitRequest{N: 2, DataB64: EncodeFloats(data)})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body))))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", rr.Code, rr.Body)
	}
	var j Job
	if err := json.NewDecoder(rr.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"?wait=10s", nil))
	if err := json.NewDecoder(rr.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusFailed || j.ErrCode != CodeNotFinite {
		t.Fatalf("NaN job: status=%s code=%s, want failed/not_finite", j.Status, j.ErrCode)
	}

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/result", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("NaN result status %d, want 400 (body %s)", rr.Code, rr.Body)
	}
	if e := decodeErr(t, rr); e.Code != CodeNotFinite {
		t.Fatalf("NaN result code %q, want %q", e.Code, CodeNotFinite)
	}
}
