package thermflow

import (
	"fmt"

	"thermflow/internal/cfg"
	"thermflow/internal/ir"
	"thermflow/internal/metrics"
	"thermflow/internal/sim"
	"thermflow/internal/tdfa"
	"thermflow/internal/thermal"
)

// RunResult is the outcome of executing a compiled program.
type RunResult struct {
	// Ret is the returned value.
	Ret int64
	// Cycles is the latency-weighted execution length.
	Cycles int64
	// Instrs is the executed instruction count.
	Instrs int64
	// Trace is the register access trace.
	Trace *sim.Trace
}

// Run executes the compiled (allocated) program at the given scale
// using the program's Setup, recording the register access trace.
func (c *Compiled) Run(scale int) (*RunResult, error) {
	var args []int64
	var mem sim.Memory
	if c.Program.Setup != nil {
		args, mem = c.Program.Setup(scale)
	}
	return c.RunWith(args, mem)
}

// RunWith executes the compiled program with explicit arguments and
// memory.
func (c *Compiled) RunWith(args []int64, mem sim.Memory) (*RunResult, error) {
	res, err := sim.Run(c.Alloc.Fn, sim.Options{Args: args, Mem: mem, Alloc: c.Alloc})
	if err != nil {
		return nil, err
	}
	return &RunResult{Ret: res.Ret, Cycles: res.Cycles, Instrs: res.Instrs, Trace: res.Trace}, nil
}

// GroundTruth holds the trace-driven thermal simulation of one run —
// the feedback-based reference the paper's analysis is designed to
// replace.
type GroundTruth struct {
	// Steady is the quasi-steady thermal state of sustained execution.
	Steady thermal.State
	// MaxOverTime is each cell's maximum during one trace pass.
	MaxOverTime thermal.State
	// DynEnergy is the dynamic access energy of one pass (J).
	DynEnergy float64
	// Run is the execution the truth was derived from.
	Run *RunResult
}

// GroundTruth executes the program at the given scale and replays the
// trace through the thermal model.
func (c *Compiled) GroundTruth(scale int) (*GroundTruth, error) {
	run, err := c.Run(scale)
	if err != nil {
		return nil, err
	}
	rr, err := sim.Replay(run.Trace, sim.ReplayConfig{
		Tech:      c.tech,
		FP:        c.fp,
		Sustained: true,
	})
	if err != nil {
		return nil, err
	}
	return &GroundTruth{
		Steady:      rr.Steady,
		MaxOverTime: rr.MaxOverTime,
		DynEnergy:   rr.DynEnergy,
		Run:         run,
	}, nil
}

// ProfileGuided executes the program once at the given scale to
// collect measured block/edge frequencies, then re-runs the thermal
// analysis with those in place of the static estimates. This is the
// halfway point between the paper's pure compile-time prediction and
// the feedback-driven flow it wants to replace: one profiling run, no
// thermal simulation.
func (c *Compiled) ProfileGuided(scale int) (*Compiled, error) {
	var args []int64
	var mem sim.Memory
	if c.Program.Setup != nil {
		args, mem = c.Program.Setup(scale)
	}
	res, err := sim.Run(c.Alloc.Fn, sim.Options{Args: args, Mem: mem, CollectProfile: true})
	if err != nil {
		return nil, err
	}
	thermalRes, err := tdfa.Analyze(c.Alloc.Fn, tdfa.Config{
		Tech:        c.tech,
		FP:          c.fp,
		Alloc:       c.Alloc,
		Solver:      c.Opts.Solver,
		Delta:       c.Opts.Delta,
		MaxIter:     c.Opts.MaxIter,
		Kappa:       c.Opts.Kappa,
		JoinOp:      c.Opts.JoinOp,
		WithLeakage: c.Opts.WithLeakage,
		NoWarmStart: c.Opts.NoWarmStart,
		DefaultTrip: c.Opts.DefaultTrip,
		Freq:        profiledFreq(c.Alloc.Fn, res.Profile),
	})
	if err != nil {
		return nil, err
	}
	nc := *c
	nc.Thermal = thermalRes
	return &nc, nil
}

// profiledFreq builds a frequency table from one run's measured block
// and edge counts (per invocation) instead of the static loop-based
// estimate. Blocks and edges the run never took get zero.
func profiledFreq(fn *ir.Function, prof *sim.Profile) *cfg.Freq {
	f := &cfg.Freq{
		Block: make([]float64, len(fn.Blocks)),
		Edge:  make(map[cfg.EdgeKey]float64),
		Prob:  make(map[cfg.EdgeKey]float64),
	}
	for _, b := range fn.Blocks {
		f.Block[b.Index] = float64(prof.Blocks[b.Name])
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			key := cfg.Edge(b, s)
			ef := float64(prof.Edges[[2]string{b.Name, s.Name}])
			f.Edge[key] = ef
			if bf := f.Block[b.Index]; bf > 0 {
				f.Prob[key] = ef / bf
			}
		}
	}
	return f
}

// Accuracy quantifies how well the compile-time prediction matches the
// measured ground truth.
type Accuracy struct {
	// RMSE and MAE are per-cell temperature errors in kelvin.
	RMSE, MAE float64
	// Pearson is the per-cell linear correlation.
	Pearson float64
	// Top4Overlap is the fraction of the 4 hottest measured cells the
	// prediction also ranks among its 4 hottest.
	Top4Overlap float64
	// PeakError is predicted minus measured peak temperature (K).
	PeakError float64
}

// Validate compares the analysis prediction against ground truth at the
// given scale.
func (c *Compiled) Validate(scale int) (*Accuracy, *GroundTruth, error) {
	if c.Thermal == nil {
		return nil, nil, fmt.Errorf("thermflow: compile ran with SkipAnalysis")
	}
	gt, err := c.GroundTruth(scale)
	if err != nil {
		return nil, nil, err
	}
	pred := []float64(c.Thermal.Mean)
	ref := []float64(gt.Steady)
	acc := &Accuracy{
		RMSE:        metrics.RMSE(pred, ref),
		MAE:         metrics.MAE(pred, ref),
		Pearson:     metrics.Pearson(pred, ref),
		Top4Overlap: metrics.TopKOverlap([]float64(c.Thermal.Peak), []float64(gt.Steady), 4),
		PeakError:   c.Thermal.Peak.Max() - gt.Steady.Max(),
	}
	return acc, gt, nil
}
