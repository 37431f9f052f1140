package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// BENCHMARK.json and spec.go state the same workloads, metrics, units and
// bounds; -compare judges by spec.go, the driver by BENCHMARK.json.
func TestManifestMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	var gated []workloadSpec
	for _, w := range gatedWorkloads() {
		w.Gated = false // not in the JSON
		gated = append(gated, w)
	}
	if !reflect.DeepEqual(m.Workloads, gated) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", m.Workloads, gated)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", m.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", m.PerLayer, perLayerSpecs)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds default %d", m.RunSeconds, defaultSeconds)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths %v, want %v", m.Paths, want)
	}
}

// The limits the driver refuses a manifest over, before a single run.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(gatedWorkloads()); n < 2 || n > 8 {
		t.Errorf("%d gated workloads", n)
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var maxBound float64
	for _, m := range endToEndSpecs {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if s, ok := findSpec(endToEndSpecs, "setup_s"); !ok || s.Unit != "s" || s.Better != lower || s.Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", s)
	}
	for _, m := range perLayerSpecs {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}
