package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"
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
