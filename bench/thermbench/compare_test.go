package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(vs []float64, k float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"same", base, false, verdictOK},
		{"slower past bound", scale(base, 1.2), false, verdictRegressed},
		{"slower within bound", scale(base, 1.05), false, verdictOK},
		{"faster", scale(base, 0.8), false, verdictImproved},
		{"throughput lower", scale(base, 0.8), true, verdictRegressed},
		{"throughput higher", scale(base, 1.2), true, verdictImproved},
		{"noisy", []float64{5, 15, 8, 13, 10, 20, 4, 12, 9, 11}, false, verdictUnresolved},
		{"noisy and twice as slow", []float64{10, 30, 16, 26, 20, 40, 8, 24, 18, 22}, false, verdictRegressed},
		{"noisy and half the throughput", []float64{2.5, 7.5, 4, 6.5, 5, 10, 2, 6, 4.5, 5.5}, true, verdictRegressed},
		{"noisy but every run faster", []float64{5, 9, 6, 8, 7, 9.5, 5.5, 8.5, 6.5, 7.5}, false, verdictImproved},
	} {
		if got, _ := judge(base, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func testReport(seed int64, cpus int, p50 []float64) *report {
	w := &workloadReport{}
	for _, v := range p50 {
		w.Runs = append(w.Runs, runResult{Correct: true, WrongResults: wrongCount{Checked: true},
			Metrics: map[string]float64{"latency_p50_ms": v, "fail_ratio": 0}})
		w.TraceRuns = append(w.TraceRuns, runResult{Correct: true,
			Metrics: map[string]float64{"cfg.freq_ms": v / 2, "tdfa.analyze_ms": v}})
	}
	return &report{
		Provenance: provenance{Schema: benchSchema, CPUs: cpus, Seed: seed},
		Workloads:  map[string]*workloadReport{"mega-cold": w},
	}
}

func TestCompareReports(t *testing.T) {
	spec := &benchmarkSpec{
		EndToEnd: []metricSpec{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "cfg.freq_ms"}, {Name: "tdfa.analyze_ms"}},
	}
	a := testReport(1, 2, []float64{10, 10.2, 9.8})
	var out bytes.Buffer
	if n, err := compareReports(&out, spec, a, testReport(1, 2, []float64{10.1, 9.9, 10})); err != nil || n != 0 {
		t.Errorf("same code: %d regressions, err %v\n%s", n, err, out.String())
	}
	out.Reset()
	slow := testReport(1, 2, []float64{13, 13.2, 12.8})
	slow.Workloads["mega-cold"].TraceRuns[0].Metrics["cfg.freq_ms"] = 50
	slow.Workloads["mega-cold"].TraceRuns[1].Metrics["cfg.freq_ms"] = 50
	n, err := compareReports(&out, spec, a, slow)
	if err != nil || n != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("30%% slower: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "largest per-layer change: cfg.freq_ms") {
		t.Errorf("largest per-layer change not named:\n%s", out.String())
	}
	for name, b := range map[string]*report{
		"seed":   testReport(2, 2, []float64{10}),
		"cpus":   testReport(1, 4, []float64{10}),
		"schema": func() *report { r := testReport(1, 2, []float64{10}); r.Provenance.Schema++; return r }(),
	} {
		if _, err := compareReports(&out, spec, a, b); err == nil {
			t.Errorf("compared reports whose %s differs", name)
		}
	}
}
