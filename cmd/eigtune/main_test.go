package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tune"
)

// TestRun drives the whole command at tiny sizes: a saved profile must load
// and carry only swept values, -save=false must write nothing, and a bad list
// value must come back as an error (run must never exit the process).
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep; skipped in -short mode")
	}
	tiny := []string{"-n", "64", "-gemm-n", "48", "-nbs", "8,16", "-colblocks", "16,32", "-lookaheads", "1,2", "-reps", "1"}
	for _, tc := range []struct {
		name      string
		extra     []string
		wantErr   bool
		wantSaved bool
	}{
		{name: "save", wantSaved: true},
		{name: "report only", extra: []string{"-save=false"}},
		{name: "bad list value", extra: []string{"-nbs", "8,x"}, wantErr: true},
		{name: "zero in list", extra: []string{"-colblocks", "0"}, wantErr: true},
		{name: "unknown flag", extra: []string{"-no-such-flag"}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tune.json")
			args := append(append(slices.Clone(tiny), tc.extra...), "-o", path)
			var stdout bytes.Buffer
			err := run(args, &stdout)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run(%v) error = %v, want error %v\n%s", args, err, tc.wantErr, stdout.String())
			}
			if !tc.wantSaved {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("profile written (stat error %v), want none", err)
				}
				return
			}
			p, err := tune.Load(path)
			if err != nil {
				t.Fatalf("tune.Load rejects the written profile: %v", err)
			}
			if !slices.Contains([]int{8, 16}, p.NB) || !slices.Contains([]int{16, 32}, p.ColBlock) || !slices.Contains([]int{1, 2}, p.Lookahead) {
				t.Errorf("nb=%d col_block=%d lookahead=%d, want members of the swept lists", p.NB, p.ColBlock, p.Lookahead)
			}
			if p.Gemm.MC == 0 || p.Gemm.NC == 0 {
				t.Errorf("gemm=%+v, want a swept mc/nc", p.Gemm)
			}
		})
	}
}
