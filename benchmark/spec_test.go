package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go must name the same workloads and metrics, in
// the same order, with the same units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.name, len(w.why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.name)
		j := b.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.name)
		j := b.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
}
