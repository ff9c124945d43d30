package tdfa

import (
	"fmt"

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
// shared by Analyze and NewRegionSession.
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
	if a.cfg.WarmStart {
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

	a.aggregate(res)
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
	lat := float64(instr.EffLatency()) * a.cfg.Tech.CycleTime
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

// aggregate fills the Peak/Mean/RegPeak summaries from the
// per-instruction states, weighting means by instruction latency.
func (a *analyzer) aggregate(res *Result) {
	nc := a.grid.NumCells()
	res.Peak = make(thermal.State, nc)
	res.Mean = make(thermal.State, nc)
	for c := 0; c < nc; c++ {
		res.Peak[c] = res.BlockIn[a.fn.Entry.Index][c]
	}
	totalW := 0.0
	for _, b := range a.fn.Blocks {
		if !a.g.Reachable(b) {
			continue
		}
		w := a.freq.BlockFreq(b)
		for _, instr := range b.Instrs {
			st := res.InstrState[instr.ID]
			iw := w * float64(instr.EffLatency())
			totalW += iw
			for c, v := range st {
				if v > res.Peak[c] {
					res.Peak[c] = v
				}
				res.Mean[c] += v * iw
			}
		}
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
}
