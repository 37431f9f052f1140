// Package service is the eigensolver-as-a-service layer: a stdlib net/http
// JSON API (submit / poll / long-poll / result / cancel) over a shared
// eigen.Solver, with static API-key auth and a pluggable job store.
//
// The service deliberately owns no resource limiter of its own. Every job is
// submitted as a single-item Solver.SolveBatch call, so admission control is
// exactly the Solver's persistent gate — Options.BatchConcurrency slots plus
// Options.MemoryBudget byte reservations — shared with every other caller of
// the same Solver. The only policy the service adds at the edge is refusal:
// a request whose workspace estimate exceeds the Solver's entire memory
// budget would be clamped by the gate and run alone, which a multi-tenant
// server does not want, so it is rejected up front with a typed 413 (see
// Server.handleSubmit and eigen.Solver.EstimateWorkspaceBytes).
package service

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Status is the lifecycle state of a job. Transitions are strictly forward:
// queued → running → one of done/failed/canceled.
type Status string

const (
	// StatusQueued: accepted by the server, not yet handed to the solver (or
	// still waiting in the admission gate once handed over — the gate wait is
	// reported as running, since the solver owns the job from then on).
	StatusQueued Status = "queued"
	// StatusRunning: handed to Solver.SolveBatch.
	StatusRunning Status = "running"
	// StatusDone: solved; the result is attached to the job record.
	StatusDone Status = "done"
	// StatusFailed: the solve returned an error; ErrCode/ErrMsg describe it.
	StatusFailed Status = "failed"
	// StatusCanceled: the job's context was canceled (DELETE endpoint or
	// server shutdown) before the solve completed.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is the stored record of one eigensolve request. It doubles as the wire
// shape of the status endpoints (with Values/Vectors stripped — results are
// served only by the result endpoint). The input matrix is deliberately not
// part of the record: it lives in server memory only for the lifetime of the
// solve, so the job store never journals O(n²) request payloads.
type Job struct {
	ID     string `json:"id"`
	Status Status `json:"status"`

	// Request parameters (the matrix itself is not retained).
	N          int  `json:"n"`
	ValuesOnly bool `json:"values_only,omitempty"`
	IL         int  `json:"il,omitempty"`
	IU         int  `json:"iu,omitempty"`

	// Lifecycle timestamps (UTC; zero until the transition happens).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// ErrCode/ErrMsg describe the failure of a failed or canceled job.
	// ErrCode is one of the stable Code* constants (see errmap.go) and is
	// what the result endpoint maps back to an HTTP status.
	ErrCode string `json:"err_code,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`

	// Result payload, present once Status == StatusDone. Vectors is
	// column-major Rows×Cols (column k pairs with Values[k]).
	Values  []float64 `json:"values,omitempty"`
	Vectors []float64 `json:"vectors,omitempty"`
	Rows    int       `json:"rows,omitempty"`
	Cols    int       `json:"cols,omitempty"`
}

// Clone deep-copies the job so stores and callers never share slices.
func (j *Job) Clone() *Job {
	c := *j
	if j.Values != nil {
		c.Values = append([]float64(nil), j.Values...)
	}
	if j.Vectors != nil {
		c.Vectors = append([]float64(nil), j.Vectors...)
	}
	return &c
}

// infoView is the status-endpoint shape of a job: everything but the result
// payload, which can be megabytes and is served by the result endpoint only.
func infoView(j *Job) *Job {
	c := *j
	c.Values, c.Vectors = nil, nil
	return &c
}

// SubmitRequest is the body of POST /v1/jobs. The matrix is row-major n×n,
// in exactly one of two encodings: Data (a JSON number array — convenient,
// but JSON cannot carry NaN/±Inf) or DataB64 (base64 of little-endian IEEE
// float64 bits — compact and bit-exact for every value, which is why the
// typed not-finite rejection is reachable over the wire at all).
type SubmitRequest struct {
	N          int       `json:"n"`
	Data       []float64 `json:"data,omitempty"`
	DataB64    string    `json:"data_b64,omitempty"`
	ValuesOnly bool      `json:"values_only,omitempty"`
	IL         int       `json:"il,omitempty"`
	IU         int       `json:"iu,omitempty"`
}

// ResultResponse is the body of GET /v1/jobs/{id}/result for a done job.
// Values round-trip bit-exactly as JSON numbers (they are finite, and
// encoding/json uses shortest-round-trip formatting); the eigenvector block
// is base64 float64 bits, column-major Rows×Cols.
type ResultResponse struct {
	ID         string    `json:"id"`
	Values     []float64 `json:"values"`
	VectorsB64 string    `json:"vectors_b64,omitempty"`
	Rows       int       `json:"rows,omitempty"`
	Cols       int       `json:"cols,omitempty"`
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries the stable machine-readable code (see errmap.go) and a
// human-readable message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// EncodeFloats encodes a float64 slice as base64 little-endian IEEE bits —
// the wire encoding of matrix payloads. Bit-exact for every value including
// NaN and ±Inf (unlike JSON numbers).
func EncodeFloats(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeFloats reverses EncodeFloats.
func DecodeFloats(s string) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("service: bad base64 float data: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("service: float data is %d bytes, not a multiple of 8", len(buf))
	}
	v := make([]float64, len(buf)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, nil
}
