package tdfa

import (
	"fmt"
	"math"

	"thermflow/internal/cfg"
	"thermflow/internal/ir"
	"thermflow/internal/power"
	"thermflow/internal/thermal"
)

// Result holds the analysis output: per-instruction thermal states, the
// convergence report and derived rankings.
type Result struct {
	// Converged reports whether the analysis reached the δ fixpoint
	// within MaxIter sweeps (Fig. 2's termination condition). A false
	// value is the paper's "too difficult to predict at compile time"
	// diagnostic.
	Converged bool
	// Iterations is the number of whole-procedure sweeps performed.
	Iterations int
	// FinalDelta is the largest per-instruction state change observed
	// in the last sweep, in kelvin.
	FinalDelta float64
	// DeltaHistory records the max state change of every sweep.
	DeltaHistory []float64
	// BlockSweeps counts block evaluations across the whole solve. The
	// dense solver evaluates every reachable block every sweep; the
	// sparse solver only the blocks whose in-state still moves, so the
	// ratio of the two is the work the worklist saved.
	BlockSweeps int

	// InstrState is the thermal state after each instruction, indexed
	// by ir.Instr.ID — "the thermal state following each instruction is
	// output".
	InstrState []thermal.State
	// BlockIn is the thermal state at each block entry, by block index.
	BlockIn []thermal.State

	// Peak is the per-cell maximum temperature over all program
	// points; Mean the per-cell time-weighted mean.
	Peak, Mean thermal.State
	// PeakTemp is the hottest predicted temperature anywhere.
	PeakTemp float64

	// RegPeak is the predicted peak temperature of each physical
	// register's cell (indexed by register number).
	RegPeak []float64

	// Critical ranks the variables by their estimated contribution to
	// hot-spot power density, hottest first (§4: "determine ... which
	// variables are most likely to be involved").
	Critical []VariableHeat

	cfg Config
	fn  *ir.Function
}

// VariableHeat scores one variable's hot-spot involvement.
type VariableHeat struct {
	// Value is the variable.
	Value *ir.Value
	// Score is the frequency-weighted access energy deposited by the
	// variable, weighted by the hotness of the cells it lands on
	// (joules·kelvin-normalized; comparable within one analysis only).
	Score float64
	// Accesses is the estimated dynamic access count per invocation.
	Accesses float64
	// Reg is the variable's physical register in post-assignment mode,
	// -1 in early mode.
	Reg int
}

// Analyze runs the thermal data-flow analysis of Fig. 2 over fn.
func Analyze(fn *ir.Function, c Config) (*Result, error) {
	a, err := newAnalyzer(fn, c)
	if err != nil {
		return nil, err
	}
	return a.run()
}

// newAnalyzer validates the configuration and builds the solver state
// Analyze runs.
func newAnalyzer(fn *ir.Function, c Config) (*analyzer, error) {
	c = c.withDefaults()
	if err := c.Tech.Validate(); err != nil {
		return nil, err
	}
	if c.Alloc != nil && c.Alloc.Fn != fn {
		return nil, fmt.Errorf("tdfa: allocation belongs to a different function")
	}
	if err := ir.Verify(fn); err != nil {
		return nil, fmt.Errorf("tdfa: ill-formed function: %w", err)
	}

	g := cfg.Build(fn)
	freq := c.Freq
	if freq == nil {
		freq = cfg.EstimateFreq(g, g.Loops(c.DefaultTrip))
	} else if len(freq.Block) != len(fn.Blocks) {
		return nil, fmt.Errorf("tdfa: frequencies cover %d blocks, function has %d",
			len(freq.Block), len(fn.Blocks))
	}

	// The grid cell size follows the floorplan (which may be a
	// coarsened view); rescale the technology parameters accordingly.
	grid, err := thermal.NewGrid(c.FP.Width, c.FP.Height, c.Tech.WithCellEdge(c.FP.CellEdge))
	if err != nil {
		return nil, err
	}

	var place placement
	if c.Alloc != nil {
		place = &exactPlacement{alloc: c.Alloc, fp: c.FP}
	} else {
		place = newPriorPlacement(c.PlacementPrior, c.FP)
	}

	a := &analyzer{
		cfg:      c,
		gridTech: c.Tech.WithCellEdge(c.FP.CellEdge),
		fn:       fn,
		g:        g,
		freq:     freq,
		grid:     grid,
		place:    place,
		stepBuf:  make(thermal.State, grid.NumCells()),
	}
	if c.Ctx != nil {
		a.done = c.Ctx.Done()
	}
	return a, nil
}

type analyzer struct {
	cfg      Config
	gridTech power.Tech // tech rescaled to the floorplan's cell size
	fn       *ir.Function
	g        *cfg.Graph
	freq     *cfg.Freq
	grid     *thermal.Grid
	place    placement
	stepBuf  thermal.State   // scratch for grid.StepWith in transfer
	done     <-chan struct{} // Ctx.Done(); nil when no context was given
}

// cancelled reports the configured context's error once the analysis
// should stop. The nil-channel receive never fires, so without a
// context the poll is a single non-blocking select.
func (a *analyzer) cancelled() error {
	select {
	case <-a.done:
		return a.cfg.Ctx.Err()
	default:
		return nil
	}
}

// newResult allocates the result and per-block out-states at their
// initial values: ambient, or the steady state of the
// frequency-averaged power map when warm-starting.
func (a *analyzer) newResult() (*Result, []thermal.State) {
	fn := a.fn
	res := &Result{
		InstrState: make([]thermal.State, fn.NumInstrs()),
		BlockIn:    make([]thermal.State, len(fn.Blocks)),
		cfg:        a.cfg,
		fn:         fn,
	}
	init := a.grid.NewState()
	if !a.cfg.NoWarmStart {
		init = a.grid.SteadyState(a.avgPowerMap())
	}
	blockOut := make([]thermal.State, len(fn.Blocks))
	for _, b := range fn.Blocks {
		res.BlockIn[b.Index] = init.Copy()
		blockOut[b.Index] = init.Copy()
	}
	for i := range res.InstrState {
		res.InstrState[i] = init.Copy()
	}
	return res, blockOut
}

func (a *analyzer) run() (*Result, error) {
	res, blockOut := a.newResult()

	var err error
	switch a.cfg.Solver {
	case SolverSparse:
		err = a.runSparse(res, blockOut)
	case SolverRegion:
		err = a.runRegion(res, blockOut)
	default:
		err = a.runDense(res, blockOut)
	}
	if err != nil {
		return nil, fmt.Errorf("tdfa: analysis cancelled: %w", err)
	}

	if err := a.aggregate(res); err != nil {
		return nil, err
	}
	a.rankCritical(res)
	return res, nil
}

// runDense is the Fig. 2 main loop: whole-procedure sweeps in
// reverse-postorder until no instruction's state moves by more than δ.
// It shares the allocation-free join and transfer machinery with the
// sparse solver; only the iteration strategy differs. The context poll
// per block evaluation keeps long fixpoints promptly cancellable.
func (a *analyzer) runDense(res *Result, blockOut []thermal.State) error {
	join := a.grid.NewState()
	s := a.grid.NewState()
	energy := make([]float64, a.grid.NumCells())
	pow := make([]float64, a.grid.NumCells())
	sc := &joinScratch{ambient: a.grid.NewState()}
	for iter := 1; iter <= a.cfg.MaxIter; iter++ {
		maxDelta := 0.0
		for _, b := range a.g.RPO {
			if err := a.cancelled(); err != nil {
				return err
			}
			a.joinPredsInto(b, blockOut, join, sc)
			res.BlockIn[b.Index].CopyFrom(join)
			s.CopyFrom(join)
			bf := a.freq.BlockFreq(b)
			for _, instr := range b.Instrs {
				a.transfer(instr, s, energy, pow, bf)
				if d := s.MaxDelta(res.InstrState[instr.ID]); d > maxDelta {
					maxDelta = d
				}
				res.InstrState[instr.ID].CopyFrom(s)
			}
			blockOut[b.Index].CopyFrom(s)
			res.BlockSweeps++
		}
		res.Iterations = iter
		res.DeltaHistory = append(res.DeltaHistory, maxDelta)
		res.FinalDelta = maxDelta
		if maxDelta <= a.cfg.Delta {
			res.Converged = true
			break
		}
	}
	return nil
}

// avgPowerMap returns the per-cell average power of sustained execution:
// frequency-weighted access energy divided by the frequency-weighted
// execution time.
func (a *analyzer) avgPowerMap() []float64 {
	energy := make([]float64, a.grid.NumCells())
	for _, b := range a.fn.Blocks {
		if !a.g.Reachable(b) {
			continue
		}
		f := a.freq.BlockFreq(b)
		var extra []float64
		if a.cfg.ExtraDeposit != nil {
			extra = make([]float64, len(energy))
		}
		for _, instr := range b.Instrs {
			for _, u := range instr.Uses {
				a.place.deposit(f*a.cfg.Tech.AccessEnergy(false), u, energy)
			}
			if instr.Def != nil {
				a.place.deposit(f*a.cfg.Tech.AccessEnergy(true), instr.Def, energy)
			}
			if a.cfg.ExtraDeposit != nil {
				for i := range extra {
					extra[i] = 0
				}
				a.cfg.ExtraDeposit(instr, extra)
				for i, e := range extra {
					energy[i] += f * e
				}
			}
		}
	}
	total := a.freq.TotalWeightedCycles(a.fn) * a.cfg.Tech.CycleTime
	if total <= 0 {
		total = a.cfg.Tech.CycleTime
	}
	for i := range energy {
		energy[i] /= total
	}
	return energy
}

// transfer estimates the thermal state after one instruction.
//
// One analysis sweep models κ invocations of the procedure: an
// instruction in a block executing freq times per invocation runs
// κ·freq times, so its access power (E/latency, a duty-1 burst) is
// applied for a window of κ·freq·latency seconds. Sweep time then
// totals κ·T_invocation, and the fixpoint's time-averaged power map
// equals the true frequency-weighted average — visiting each
// instruction once per sweep (as Fig. 2 does) without distorting hot
// loops versus cold straight-line code.
func (a *analyzer) transfer(instr *ir.Instr, s thermal.State, energy, pow []float64, freq float64) {
	a.transferWith(instr, s, energy, pow, freq, a.stepBuf)
}

// transferWith is transfer with a caller-provided integration scratch
// buffer, so concurrent region solvers can share one analyzer while
// each keeps private scratch.
func (a *analyzer) transferWith(instr *ir.Instr, s thermal.State, energy, pow []float64, freq float64, stepBuf thermal.State) {
	a.instrEnergy(instr, energy)
	lat := a.latency(instr)
	dt := lat * a.cfg.Kappa * freq
	if dt <= 0 {
		return
	}
	for i := range pow {
		pow[i] = energy[i] / lat
		if a.cfg.WithLeakage {
			pow[i] += a.gridTech.Leakage(s[i])
		}
	}
	a.grid.StepWith(s, pow, dt, stepBuf)
}

// instrEnergy writes into energy the per-cell energy (J) of one
// execution of instr: its register accesses plus ExtraDeposit.
func (a *analyzer) instrEnergy(instr *ir.Instr, energy []float64) {
	for i := range energy {
		energy[i] = 0
	}
	for _, u := range instr.Uses {
		a.place.deposit(a.cfg.Tech.AccessEnergy(false), u, energy)
	}
	if instr.Def != nil {
		a.place.deposit(a.cfg.Tech.AccessEnergy(true), instr.Def, energy)
	}
	if a.cfg.ExtraDeposit != nil {
		a.cfg.ExtraDeposit(instr, energy)
	}
}

// latency is one execution of instr in seconds.
func (a *analyzer) latency(instr *ir.Instr) float64 {
	return float64(instr.EffLatency()) * a.cfg.Tech.CycleTime
}

// boundTolerance absorbs rounding in the physical bound check (K).
const boundTolerance = 1e-9

// stateBound returns the interval every analysis state must lie in.
// Each Euler substep at or below the stable step is a convex
// combination of the cell, its neighbours, ambient and the cell's
// steady state under the window's power, and the joins and the warm
// start are convex too. So without leakage every state lies in
// [T_amb, T_amb + p_max/GVert], where p_max is the largest per-cell
// power any instruction applies in its window. Leakage grows with
// temperature, so with it only NaN and ±Inf are ruled out.
func (a *analyzer) stateBound() (lo, hi float64) {
	if a.cfg.WithLeakage {
		return -math.MaxFloat64, math.MaxFloat64
	}
	energy := a.stepBuf // free once the solve is done
	pMax := 0.0
	for _, b := range a.fn.Blocks {
		if !a.g.Reachable(b) {
			continue
		}
		for _, instr := range b.Instrs {
			a.instrEnergy(instr, energy)
			lat := a.latency(instr)
			for _, e := range energy {
				if p := e / lat; p > pMax {
					pMax = p
				}
			}
		}
	}
	return a.grid.TAmb - boundTolerance, a.grid.TAmb + pMax/a.grid.GVert + boundTolerance
}

// outOfBound returns the first cell of st outside [lo, hi], or -1. The
// negated test also catches NaN.
func outOfBound(st thermal.State, lo, hi float64) int {
	for c, v := range st {
		if !(v >= lo && v <= hi) {
			return c
		}
	}
	return -1
}

// boundError reports a state outside the physical bound [lo, hi]:
// instr's state when instr is non-nil, else the in-state of block b.
func (a *analyzer) boundError(res *Result, b *ir.Block, instr *ir.Instr, window, lo, hi float64) error {
	span := fmt.Sprintf("the physical bound [%g, %g] K", lo+boundTolerance, hi-boundTolerance)
	if a.cfg.WithLeakage {
		span = "the finite range"
	}
	if instr == nil {
		c := outOfBound(res.BlockIn[b.Index], lo, hi)
		return fmt.Errorf("tdfa: thermal state entering block %s is %g K in cell %d, outside %s",
			b.Name, res.BlockIn[b.Index][c], c, span)
	}
	c := outOfBound(res.InstrState[instr.ID], lo, hi)
	limit := thermal.MaxSubsteps * a.grid.MaxStableStep()
	past := "within"
	if window > limit {
		past = "past"
	}
	return fmt.Errorf("tdfa: thermal state after %q in block %s is %g K in cell %d, outside %s: "+
		"its window κ·freq·latency of %.4g s is %s the thermal step's cap of %d substeps (%.4g s)",
		instr.String(), b.Name, res.InstrState[instr.ID][c], c, span,
		window, past, thermal.MaxSubsteps, limit)
}

// aggregate fills the Peak/Mean/RegPeak summaries from the
// per-instruction states, weighting means by instruction latency. It
// fails when any reachable instruction or block-in state leaves the
// physical bound (stateBound): such a state, NaN above all, would
// otherwise hide behind a converged peak, because comparisons with NaN
// are false. Of the instructions whose state is out of bound, the
// error names the one with the longest window, the likeliest cause: a
// window longer than thermal.MaxSubsteps stable steps is integrated in
// unstable substeps.
func (a *analyzer) aggregate(res *Result) error {
	lo, hi := a.stateBound()
	nc := a.grid.NumCells()
	res.Peak = make(thermal.State, nc)
	res.Mean = make(thermal.State, nc)
	for c := 0; c < nc; c++ {
		res.Peak[c] = res.BlockIn[a.fn.Entry.Index][c]
	}
	var badBlock, worstBlock *ir.Block
	var worst *ir.Instr
	worstWindow := -1.0
	totalW := 0.0
	for _, b := range a.fn.Blocks {
		if !a.g.Reachable(b) {
			continue
		}
		if badBlock == nil && outOfBound(res.BlockIn[b.Index], lo, hi) >= 0 {
			badBlock = b
		}
		w := a.freq.BlockFreq(b)
		for _, instr := range b.Instrs {
			st := res.InstrState[instr.ID]
			iw := w * float64(instr.EffLatency())
			totalW += iw
			in := true
			for c, v := range st {
				if v > res.Peak[c] {
					res.Peak[c] = v
				}
				res.Mean[c] += v * iw
				in = in && v >= lo && v <= hi
			}
			if !in {
				if window := a.latency(instr) * a.cfg.Kappa * w; window > worstWindow {
					worst, worstBlock, worstWindow = instr, b, window
				}
			}
		}
	}
	if worst != nil {
		return a.boundError(res, worstBlock, worst, worstWindow, lo, hi)
	}
	if badBlock != nil {
		return a.boundError(res, badBlock, nil, 0, lo, hi)
	}
	if totalW > 0 {
		for c := range res.Mean {
			res.Mean[c] /= totalW
		}
	}
	res.PeakTemp = res.Peak.Max()
	res.RegPeak = make([]float64, a.cfg.FP.NumRegs)
	for r := 0; r < a.cfg.FP.NumRegs; r++ {
		res.RegPeak[r] = res.Peak[a.cfg.FP.CellOf(r)]
	}
	return nil
}
