package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	eigen "repro"
)

// FuzzSubmitDecode drives the submit handler's payload decoding —
// decodeMatrixPayload and, through data_b64, DecodeFloats — with hostile
// orders and payloads. It must never panic, and whatever it accepts must be
// exactly n·n entries for a positive n, with n·n computed without overflow.
// The data argument is the JSON data array as little-endian float64 bits,
// present only when useData is set.
func FuzzSubmitDecode(f *testing.F) {
	bitsOf := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	one := EncodeFloats([]float64{1})
	f.Add(1, one, []byte(nil), false)
	f.Add(1, "AAAAAAAA8D8", []byte(nil), false)   // 8 bytes, unpadded
	f.Add(1, "AAAAAAA=", []byte(nil), false)      // 5 bytes: not a multiple of 8
	f.Add(2, one, []byte(nil), false)             // wrong length for n
	f.Add(2, "", bitsOf(1, 2, 3), true)           // wrong length for n
	f.Add(0, "", []byte{}, true)                  // n = 0
	f.Add(-3, one, []byte(nil), false)            // n < 0
	f.Add(1<<32, "", []byte{}, true)              // n² wraps to 0
	f.Add(3037000500, "", []byte{}, true)         // n² wraps negative
	f.Add(math.MaxInt64, one, []byte(nil), false) // n = 2⁶³−1
	f.Add(2, "", bitsOf(math.NaN(), math.Inf(1), math.Inf(-1), 0), true)
	f.Add(1, EncodeFloats([]float64{math.NaN()}), []byte(nil), false)
	f.Add(1, one, bitsOf(1), true)   // both payload fields
	f.Add(1, "", []byte(nil), false) // neither payload field

	f.Fuzz(func(t *testing.T, n int, b64 string, data []byte, useData bool) {
		req := SubmitRequest{N: n, DataB64: b64}
		if useData {
			req.Data = make([]float64, len(data)/8)
			for i := range req.Data {
				req.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		got, code, msg := decodeMatrixPayload(&req, DefaultMaxBodyBytes)
		if code != "" {
			if msg == "" {
				t.Fatalf("n=%d: code %q without a message", n, code)
			}
			return
		}
		if n <= 0 {
			t.Fatalf("accepted n=%d", n)
		}
		hi, lo := bits.Mul64(uint64(n), uint64(n))
		if hi != 0 || lo != uint64(len(got)) {
			t.Fatalf("accepted %d entries for n=%d", len(got), n)
		}
	})
}

// FuzzSubmitHandler drives arbitrary bodies through POST /v1/jobs, the
// whole submit handler: JSON decoding, trailing-data refusal, payload
// decoding, range and budget checks. It must never panic; every response
// other than 202 must be an ErrorBody whose code maps to the response's
// status, and every 202 a queued Job answering a body that is exactly one
// JSON value.
func FuzzSubmitHandler(f *testing.F) {
	valid := `{"n": 2, "data": [4, 1, 1, 3]}`
	for i := 0; i <= len(valid); i++ {
		f.Add(valid[:i])
	}
	for _, body := range []string{
		`{"n":1,"data":[1]}xyz`,
		`{"n":1,"data":[1]}{"n":2}`,
		`{"n":1,"data":[1]}` + " \n\t",
		`{"n":1e400}`,
		`{"n":"2"}`,
		`{"n": 2, "data": [1, 2, 3]}`,
		`{"n": 1, "data_b64": "!!!"}`,
		`{"n": 1, "data_b64": "` + EncodeFloats([]float64{math.NaN()}) + `"}`,
	} {
		f.Add(body)
	}
	solver := eigen.NewSolver(nil)
	f.Cleanup(func() { solver.Close() })
	store := NewMemStore(0)
	f.Cleanup(func() { store.Close() })
	srv, err := New(Config{Solver: solver, Store: store, MaxBodyBytes: 512})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, body string) {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		if rr.Code == http.StatusAccepted {
			var j Job
			if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil || j.ID == "" || j.Status != StatusQueued {
				t.Fatalf("202 for %q is not a queued job: %v (body %s)", body, err, rr.Body)
			}
			if !json.Valid([]byte(body)) {
				t.Fatalf("202 for %q, which is not one JSON value", body)
			}
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("status %d for %q without an error body: %v (body %s)", rr.Code, body, err, rr.Body)
		}
		if st := HTTPStatus(eb.Error.Code); st != rr.Code {
			t.Fatalf("status %d for %q, but code %q maps to %d", rr.Code, body, eb.Error.Code, st)
		}
	})
}

// FuzzDiskStoreReplay opens arbitrary bytes as a DiskStore journal. Opening
// must not panic; every job it replays must be terminal (a job the journal
// leaves queued or running is marked interrupted); and opening the journal
// again must replay the same records, interruption markings included.
func FuzzDiskStoreReplay(f *testing.F) {
	f.Add([]byte(`{"job":{"id":"ok","status":"done","n":2,"values":[1,2]}}` + "\n" + `{"job":{"id":"torn","stat`))
	f.Add([]byte(`{"job":{"id":"mid","status":"running","n":8,"created":"2024-05-01T10:00:00+02:00"}}` + "\n"))
	f.Add([]byte("\x00\xffnot a journal {{\n"))
	f.Add([]byte(`{"job":null}` + "\n"))
	f.Add([]byte(`{"job":{"id":"gone","status":"done","n":1}}` + "\n" + `{"delete":"gone"}` + "\n"))

	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() []byte {
			d, err := NewDiskStore(path)
			if err != nil {
				t.Fatalf("NewDiskStore: %v", err)
			}
			defer d.Close()
			for id, j := range d.jobs {
				if !j.Status.Terminal() {
					t.Fatalf("job %q replayed with status %q", id, j.Status)
				}
			}
			// Records compare as the journal writes them.
			b, err := json.Marshal(d.jobs)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if first, again := replay(), replay(); !bytes.Equal(first, again) {
			t.Fatalf("a second open replays other records:\n%s\n%s", first, again)
		}
	})
}
