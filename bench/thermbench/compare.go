package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain implements `thermbench compare A B`: A is the baseline
// report, B the candidate. It exits 1 when any end-to-end metric of any
// workload regressed past its bound, 2 when the reports cannot be
// compared.
func compareMain(root, pathA, pathB string) int {
	regressed, err := func() (int, error) {
		root, err := findRoot(root)
		if err != nil {
			return 0, err
		}
		spec, err := loadBenchmark(root)
		if err != nil {
			return 0, err
		}
		a, err := readReport(pathA)
		if err != nil {
			return 0, err
		}
		b, err := readReport(pathB)
		if err != nil {
			return 0, err
		}
		return compareReports(os.Stdout, spec, a, b)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench compare:", err)
		return 2
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
)

// absoluteBounds are end-to-end checks judged by absolute change rather
// than a share of the median: they read 0 when all is well.
var absoluteBounds = map[string]float64{
	"fail_ratio": 0.001,
}

// compareReports prints, per workload, each end-to-end metric's median
// and quartiles on both sides with a verdict, then the per-layer metric
// that changed most. It returns the number of regressions.
func compareReports(w io.Writer, spec *benchmarkSpec, a, b *report) (int, error) {
	pa, pb := a.Provenance, b.Provenance
	switch {
	case pa.Schema != pb.Schema:
		return 0, fmt.Errorf("report schemas differ (%d vs %d)", pa.Schema, pb.Schema)
	case pa.CPUs != pb.CPUs:
		return 0, fmt.Errorf("reports were taken on %d and %d cpus", pa.CPUs, pb.CPUs)
	case pa.Seed != pb.Seed:
		return 0, fmt.Errorf("reports use seeds %d and %d", pa.Seed, pb.Seed)
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("the reports share no workload")
	}
	regressions := 0
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		fmt.Fprintf(w, "== %s (baseline %d runs, candidate %d runs)\n", n, len(wa.Runs), len(wb.Runs))
		fmt.Fprintf(w, "  %-18s %-30s %-30s %8s  %s\n", "metric", "baseline median [q1, q3]", "candidate median [q1, q3]", "worse by", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := runValues(wa.Runs, m.Name), runValues(wb.Runs, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := judge(va, vb, m.Bound, m.Better == "higher")
			if v == verdictRegressed {
				regressions++
			}
			fmt.Fprintf(w, "  %-18s %-30s %-30s %+7.1f%%  %s\n", m.Name, quartileText(va), quartileText(vb), 100*change, v)
		}
		for name, bound := range absoluteBounds {
			va, vb := runValues(wa.Runs, name), runValues(wb.Runs, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdictOK
			if median(vb)-median(va) > bound {
				v = verdictRegressed
				regressions++
			}
			fmt.Fprintf(w, "  %-18s %-30s %-30s %8s  %s\n", name, quartileText(va), quartileText(vb), "", v)
		}
		wrong := 0
		for _, r := range wb.Runs {
			if !r.Correct || r.WrongResults.N > 0 {
				wrong++
			}
		}
		v := verdictOK
		if wrong > 0 {
			v = verdictRegressed
			regressions++
		}
		fmt.Fprintf(w, "  %-18s candidate runs with wrong results: %d  %s\n", "wrong_results", wrong, v)
		if name, change, ok := largestLayerChange(spec, wa, wb); ok {
			fmt.Fprintf(w, "  largest per-layer change: %s %+.1f%%\n", name, 100*change)
		}
	}
	return regressions, nil
}

func runValues(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func quartileText(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

// judge applies the regression and gain rules to one metric. change is
// the candidate's median relative to the baseline's, signed so that
// positive is worse. A change past the bound regresses, however noisy
// either side is. Otherwise either side's spread wider than the bound
// leaves the metric unresolved, unless every candidate run beats every
// baseline run. A gain needs the candidate to win at least nine tenths
// of the run pairs and the medians to differ by more than the
// baseline's interquartile range.
func judge(a, b []float64, bound float64, higherBetter bool) (string, float64) {
	medA, medB := median(a), median(b)
	if medA == 0 {
		return verdictUnresolved, 0
	}
	change := (medB - medA) / math.Abs(medA)
	if higherBetter {
		change = -change
	}
	if change > bound {
		return verdictRegressed, change
	}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if (spread(a) > bound || spread(b) > bound) && !allBetter {
		return verdictUnresolved, change
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(a)
	if pairs > 0 && 10*wins >= 9*pairs && math.Abs(medB-medA) > q3-q1 {
		return verdictImproved, change
	}
	return verdictOK, change
}

// largestLayerChange names the per-layer metric whose traced median
// moved most between the reports, relative to the baseline.
func largestLayerChange(spec *benchmarkSpec, a, b *workloadReport) (string, float64, bool) {
	best, bestChange, found := "", 0.0, false
	for _, m := range spec.PerLayer {
		va, vb := runValues(a.TraceRuns, m.Name), runValues(b.TraceRuns, m.Name)
		if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
			continue
		}
		c := (median(vb) - median(va)) / math.Abs(median(va))
		if !found || math.Abs(c) > math.Abs(bestChange) {
			best, bestChange, found = m.Name, c, true
		}
	}
	return best, bestChange, found
}
