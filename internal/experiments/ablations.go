package experiments

import (
	"fmt"

	"thermflow"
	"thermflow/internal/metrics"
	"thermflow/internal/report"
	"thermflow/internal/tdfa"
)

// A1Row holds one κ point.
type A1Row struct {
	// Kappa is the time-acceleration factor.
	Kappa float64
	// Iterations to converge from a cold start.
	Iterations int
	// Converged within the cap.
	Converged bool
	// PeakError is |cold-start peak − warm-start reference peak| (K).
	PeakError float64
}

// A1Result bundles the κ ablation.
type A1Result struct {
	// RefPeak is the warm-started reference peak (K).
	RefPeak float64
	// Rows per κ.
	Rows []A1Row
}

// A1 ablates the time-acceleration factor κ: from a cold start with
// fixed δ, small κ under-integrates (false early convergence, large
// peak error) while large κ reaches the fixpoint in few sweeps.
func A1(cfg Config) (*A1Result, error) {
	cfg.section("A1 — ablation: time-acceleration factor κ")
	const kernel = "fir"
	p, err := thermflow.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	ref, err := p.Compile(thermflow.Options{Policy: thermflow.FirstFree})
	if err != nil {
		return nil, err
	}
	res := &A1Result{RefPeak: ref.Thermal.PeakTemp}
	kappas := []float64{0.1, 1, 10, 100, 1000}
	if cfg.Quick {
		kappas = []float64{1, 100}
	}
	// The κ points are independent cold-start solves — the slowest part
	// of the ablation — so sweep them through the batch engine.
	jobs := make([]thermflow.CompileJob, len(kappas))
	for i, k := range kappas {
		jobs[i] = thermflow.CompileJob{Program: p, Opts: thermflow.Options{
			Policy: thermflow.FirstFree, Kappa: k, NoWarmStart: true,
			Delta: 0.05, MaxIter: 1024,
		}}
	}
	compiled, err := cfg.compileAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("a1: %w", err)
	}
	tbl := report.NewTable("kappa", "iterations", "converged", "peak err K")
	for i, k := range kappas {
		c := compiled[i]
		errPeak := c.Thermal.PeakTemp - res.RefPeak
		if errPeak < 0 {
			errPeak = -errPeak
		}
		row := A1Row{
			Kappa:      k,
			Iterations: c.Thermal.Iterations,
			Converged:  c.Thermal.Converged,
			PeakError:  errPeak,
		}
		res.Rows = append(res.Rows, row)
		tbl.AddF(k, row.Iterations, row.Converged, row.PeakError)
	}
	cfg.printf("%s\n", tbl.String())
	return res, nil
}

// A2Row holds one join operator's accuracy.
type A2Row struct {
	// Join is the merge operator.
	Join tdfa.Join
	// Pearson and RMSE vs measured sustained state.
	Pearson, RMSE float64
	// Peak is the predicted peak (K).
	Peak float64
}

// A2Result bundles the join ablation.
type A2Result struct {
	// Rows per join operator.
	Rows []A2Row
}

// A2 ablates the join operator at control-flow merges: the
// frequency-weighted average (default) against the unweighted average
// and the conservative cell-wise max. Expected shape: weighted ≥
// unweighted in accuracy; max overestimates the peak.
func A2(cfg Config) (*A2Result, error) {
	cfg.section("A2 — ablation: join operator")
	const kernel = "fir"
	p, err := thermflow.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	// One ground truth for all joins (same policy/assignment seed).
	base, err := p.Compile(thermflow.Options{Policy: thermflow.FirstFree})
	if err != nil {
		return nil, err
	}
	gt, err := base.GroundTruth(e3Scale)
	if err != nil {
		return nil, err
	}
	res := &A2Result{}
	tbl := report.NewTable("join", "Pearson", "RMSE K", "pred peak K")
	joins := []tdfa.Join{tdfa.JoinWeighted, tdfa.JoinUnweighted, tdfa.JoinMax}
	jobs := make([]thermflow.CompileJob, len(joins))
	for i, j := range joins {
		jobs[i] = thermflow.CompileJob{Program: p, Opts: thermflow.Options{
			Policy: thermflow.FirstFree, JoinOp: j,
		}}
	}
	compiled, err := cfg.compileAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("a2: %w", err)
	}
	for i, j := range joins {
		c := compiled[i]
		row := A2Row{
			Join:    j,
			Pearson: metrics.Pearson([]float64(c.Thermal.Mean), []float64(gt.Steady)),
			RMSE:    metrics.RMSE([]float64(c.Thermal.Mean), []float64(gt.Steady)),
			Peak:    c.Thermal.PeakTemp,
		}
		res.Rows = append(res.Rows, row)
		tbl.AddF(j.String(), row.Pearson, row.RMSE, row.Peak)
	}
	cfg.printf("%s\n", tbl.String())
	return res, nil
}
