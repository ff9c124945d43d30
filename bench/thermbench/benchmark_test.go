package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json and thermbench must agree: the workloads it lists are
// the ones thermbench runs, each unit follows the naming convention the
// report uses, and the command runs the wrapper inside the benchmark's
// own directory.
func TestBenchmarkFileMatchesThermbench(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, thermbench runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in thermbench", i, w.Name, workloadNames[i])
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit != unitOf(m.Name) {
			t.Errorf("metric %s has unit %q, the naming convention says %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	var setup *metricSpec
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil {
		t.Fatal("no setup_s metric")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("metric %s bound %v exceeds setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}

	var raw struct {
		Command []string `json:"command"`
		Paths   []string `json:"paths"`
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Paths) != 1 || raw.Paths[0] != "bench" || len(raw.Command) != 2 || raw.Command[1] != "bench/run.sh" {
		t.Errorf("command %v / paths %v do not run bench/run.sh from bench", raw.Command, raw.Paths)
	}
	if float64(spec.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, thermbench defaults to %v", spec.RunSeconds, defaultSeconds)
	}
}
