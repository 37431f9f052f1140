package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func validProfile() *Profile {
	p := NewProfile()
	p.Gemm = GemmConfig{MC: 192, KC: RequiredKC, NC: 768}
	p.NB = 48
	p.ColBlock = 96
	p.AlphaFlops = 5e9
	p.BetaFlops = 1e9
	p.ModelNB = 44
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "tune.json")
	want := validProfile()
	if err := want.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if *got != *want {
		t.Errorf("round trip changed profile:\n got %+v\nwant %+v", *got, *want)
	}
	// No temp litter left behind by the atomic write.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("profile dir has %d entries, want 1 (no temp files)", len(ents))
	}
}

func TestProfileValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"version", func(p *Profile) { p.Version = ProfileVersion + 1 }},
		{"goos", func(p *Profile) { p.GOOS = p.GOOS + "x" }},
		{"goarch", func(p *Profile) { p.GOARCH = "wasm" }},
		{"numcpu", func(p *Profile) { p.NumCPU = runtime.NumCPU() + 1 }},
		{"kc", func(p *Profile) { p.Gemm.KC = RequiredKC * 2 }},
		{"negative-nb", func(p *Profile) { p.NB = -1 }},
		{"negative-mc", func(p *Profile) { p.Gemm.MC = -5 }},
	}
	for _, tc := range cases {
		p := validProfile()
		tc.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid profile %+v", tc.name, *p)
		}
		// Save must refuse to persist what Load would reject.
		if err := p.Save(filepath.Join(t.TempDir(), "tune.json")); err == nil {
			t.Errorf("%s: Save persisted an invalid profile", tc.name)
		}
	}
	p := validProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	// An unset KC is valid (defers to the default).
	p.Gemm.KC = 0
	if err := p.Validate(); err != nil {
		t.Errorf("zero KC rejected: %v", err)
	}
}

// legacyKeysProfile is a v3 file as builds before the schema lost them wrote
// it: it carries gemm.kernel, wide_band and band_sweeps, which this build
// skips like any unknown key.
func legacyKeysProfile() []byte {
	return fmt.Appendf(nil, `{"version":%d,"goos":%q,"goarch":%q,"num_cpu":%d,"gemm":{"mc":128,"kc":128,"nc":1024,"kernel":"2x4"},"nb":32,"wide_band":64,"band_sweeps":[8]}`,
		ProfileVersion, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}

// withVersion is validProfile stamped with another schema version, as JSON.
func withVersion(t testing.TB, v int) []byte {
	p := validProfile()
	p.Version = v
	return mustJSON(t, p)
}

func TestLoadRejectsMismatch(t *testing.T) {
	otherBox := validProfile()
	otherBox.NumCPU = runtime.NumCPU() + 7
	cases := []struct {
		name    string
		data    []byte // written as is, bypassing Save's validation
		errHas  string
		wantErr bool
	}{
		{name: "tuned on another box", data: mustJSON(t, otherBox), wantErr: true},
		{name: "malformed JSON", data: []byte("{not json"), wantErr: true},
		// One schema: every other version is refused, and the error names it.
		{name: "v1", data: withVersion(t, 1), wantErr: true, errHas: "schema v1,"},
		{name: "v2", data: withVersion(t, 2), wantErr: true, errHas: "schema v2,"},
		{name: "future", data: withVersion(t, ProfileVersion+7), wantErr: true, errHas: fmt.Sprintf("schema v%d,", ProfileVersion+7)},
		{name: "legacy keys under v3", data: legacyKeysProfile()},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "tune.json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Load = %+v, %v; want error %v", tc.name, got, err, tc.wantErr)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.errHas)
		}
	}
}

// FuzzLoad feeds Load arbitrary file contents: it must never panic, and
// whatever it accepts must be valid and survive Save → Load unchanged. The
// seed corpus runs under plain `go test`.
func FuzzLoad(f *testing.F) {
	saved, err := json.MarshalIndent(validProfile(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(legacyKeysProfile())
	f.Add(withVersion(f, 1))
	f.Add(withVersion(f, 2))
	f.Add(saved[:len(saved)/2])
	f.Add([]byte(`{"version":3,"nb":-48,"gemm":{"mc":-1}}`))
	f.Add([]byte(`{"version":3,"num_cpu":9223372036854775808,"nb":9223372036854775807,"alpha_flops":1e999}`))
	f.Add([]byte(`{"version":3,"nb":"48","gemm":{"kc":"128"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "tune.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Load accepted a profile Validate rejects: %v", err)
		}
		again := filepath.Join(dir, "again.json")
		if err := p.Save(again); err != nil {
			t.Fatalf("Save of a loaded profile: %v", err)
		}
		q, err := Load(again)
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if *q != *p {
			t.Fatalf("Save → Load changed the profile:\n got %+v\nwant %+v", *q, *p)
		}
	})
}

func TestDefaultPathEnvOverride(t *testing.T) {
	t.Setenv(ProfileEnv, "/some/where/tune.json")
	got, err := DefaultPath()
	if err != nil || got != "/some/where/tune.json" {
		t.Errorf("DefaultPath with env = %q, %v", got, err)
	}
}

// TestDefaultPathWithoutHomeDir pins the degraded path for HOME-less
// containers: DefaultPath must return an error (not panic, not return a
// bogus path) and Cached must swallow it and report no profile.
func TestDefaultPathWithoutHomeDir(t *testing.T) {
	t.Setenv("HOME", "")
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv(ProfileEnv, "")
	InvalidateCache()
	t.Cleanup(InvalidateCache)

	if path, err := DefaultPath(); err == nil {
		t.Fatalf("DefaultPath without HOME = %q, want error", path)
	}
	if p := Cached(); p != nil {
		t.Fatalf("Cached without HOME = %+v, want nil", p)
	}
}

func TestCachedUsesEnvPathAndInvalidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	t.Setenv(ProfileEnv, path)
	InvalidateCache()
	t.Cleanup(InvalidateCache)

	if p := Cached(); p != nil {
		t.Fatalf("Cached returned %+v for a missing file", p)
	}
	want := validProfile()
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	// The negative result is cached until invalidated.
	if p := Cached(); p != nil {
		t.Fatalf("Cached re-read disk without InvalidateCache")
	}
	InvalidateCache()
	got := Cached()
	if got == nil || *got != *want {
		t.Errorf("Cached after save = %+v, want %+v", got, want)
	}
}

func mustJSON(t testing.TB, p *Profile) []byte {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
