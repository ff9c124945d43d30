package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchSchema versions report.json; compare refuses reports whose
// schemas differ.
const benchSchema = 1

// runResult is one run of one workload. A child process prints it as
// its last line; the parent collects runs into report.json.
type runResult struct {
	Workload          string             `json:"workload"`
	Trace             bool               `json:"trace"`
	Correct           bool               `json:"correct"`
	Attempted         int                `json:"attempted"`
	Failed            int                `json:"failed"`
	WrongResults      wrongCount         `json:"wrong_results"`
	InvariantFailures int64              `json:"invariant_failures"`
	Samples           int                `json:"samples"`
	Metrics           map[string]float64 `json:"metrics"`
}

// provenance records where and how a report was taken.
type provenance struct {
	Schema     int     `json:"schema"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// workloadReport is every run of one workload plus each metric's
// median and spread across them.
type workloadReport struct {
	Runs       []runResult        `json:"runs"`
	TraceRuns  []runResult        `json:"trace_runs,omitempty"`
	Median     map[string]float64 `json:"median"`
	Spread     map[string]float64 `json:"spread"`
	RunSamples []int              `json:"run_samples"`
}

type report struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

func newProvenance(root string, seed int64, seconds float64) provenance {
	return provenance{
		Schema: benchSchema, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(root), Seed: seed, Seconds: seconds,
	}
}

// gitRev is the checked-out commit, or "unavailable" when root is not
// itself a git work tree (an exported copy inside some other
// repository must not report that repository's commit).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// summarize fills the per-metric median and spread of a workload's
// timed runs, and of its traced runs under the same names.
func (w *workloadReport) summarize() {
	w.Median, w.Spread = map[string]float64{}, map[string]float64{}
	w.RunSamples = nil
	collect := func(runs []runResult) {
		byName := map[string][]float64{}
		for _, r := range runs {
			for k, v := range r.Metrics {
				byName[k] = append(byName[k], v)
			}
		}
		for k, vs := range byName {
			w.Median[k] = median(vs)
			w.Spread[k] = spread(vs)
		}
	}
	collect(w.TraceRuns)
	collect(w.Runs)
	for _, r := range w.Runs {
		w.RunSamples = append(w.RunSamples, r.Samples)
	}
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func outDir(root string, seed int64) string {
	return filepath.Join(root, "bench", "out", fmt.Sprint(seed))
}

func tracePath(env runEnv, workload string) string {
	return filepath.Join(env.out, workload+".trace.json")
}

// unitOf names a metric's unit from its name, the convention
// BENCHMARK.json follows.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "coverage"), strings.HasSuffix(name, "_growth"),
		strings.HasSuffix(name, "_max"), strings.HasSuffix(name, "per_job"):
		return "ratio"
	}
	return "count"
}

// benchmarkSpec is the part of BENCHMARK.json thermbench reads: the
// metric names per section, their direction and regression bounds.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// resultLine is the one-line JSON summary a single-workload invocation
// prints last: every metric of the section it ran, by name with unit.
func resultLine(spec *benchmarkSpec, trace bool, runs []runResult) ([]byte, error) {
	metrics := spec.EndToEnd
	if trace {
		metrics = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(runs) > 0, Metrics: map[string]value{}}
	for _, r := range runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, m := range metrics {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m.Name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) != len(runs) {
			return nil, fmt.Errorf("metric %s missing from a run", m.Name)
		}
		line.Metrics[m.Name] = value{Value: median(vs), Unit: m.Unit}
	}
	return json.Marshal(line)
}

// printTable prints every metric of the named workloads by name, with
// its unit, median and spread across runs.
func printTable(rep *report, names []string) {
	for _, n := range names {
		w := rep.Workloads[n]
		fmt.Printf("== %s (%d timed, %d traced runs; samples %v)\n", n, len(w.Runs), len(w.TraceRuns), w.RunSamples)
		keys := make([]string, 0, len(w.Median))
		for k := range w.Median {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-38s %14.6g %-6s spread %.3f\n", k, w.Median[k], unitOf(k), w.Spread[k])
		}
		for _, r := range append(append([]runResult{}, w.Runs...), w.TraceRuns...) {
			wr, _ := r.WrongResults.MarshalJSON()
			fmt.Printf("  run: correct=%t attempted=%d failed=%d wrong_results=%s invariant_failures=%d\n",
				r.Correct, r.Attempted, r.Failed, wr, r.InvariantFailures)
		}
	}
}
