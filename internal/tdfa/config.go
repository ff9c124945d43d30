package tdfa

import (
	"context"
	"fmt"

	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/ir"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
)

// Join selects the merge operator applied to predecessor thermal states
// at control-flow joins.
type Join int

// Join operators (ablation A2 compares them).
const (
	// JoinWeighted averages predecessor states weighted by estimated
	// edge frequency — the default.
	JoinWeighted Join = iota
	// JoinUnweighted averages predecessors equally.
	JoinUnweighted
	// JoinMax takes the cell-wise maximum — a conservative
	// (worst-case) merge.
	JoinMax
)

// String names the join operator.
func (j Join) String() string {
	switch j {
	case JoinWeighted:
		return "weighted"
	case JoinUnweighted:
		return "unweighted"
	case JoinMax:
		return "max"
	}
	return fmt.Sprintf("join(%d)", int(j))
}

// Joins lists every merge operator.
var Joins = []Join{JoinWeighted, JoinUnweighted, JoinMax}

// JoinByName resolves a join-operator name ("weighted", "unweighted",
// "max").
func JoinByName(name string) (Join, bool) {
	for _, j := range Joins {
		if j.String() == name {
			return j, true
		}
	}
	return JoinWeighted, false
}

// Solver selects the fixpoint iteration strategy.
type Solver int

// Solvers.
const (
	// SolverDense is the paper-faithful Fig. 2 iteration: every sweep
	// re-evaluates every instruction of the procedure. It is the
	// reference implementation the sparse solver is differentially
	// tested against.
	SolverDense Solver = iota
	// SolverSparse is a sparse worklist variant: after the warm start,
	// only blocks whose in-state still moves are re-swept. Blocks are
	// processed in reverse-postorder; a block whose out-state moved
	// beyond a fraction of δ re-activates its successors (and, for
	// returning blocks, the entry — the sustained-execution
	// wrap-around). Scratch buffers are reused, so steady-state waves
	// allocate nothing.
	SolverSparse
	// SolverRegion partitions the CFG into regions along loop-nest
	// boundaries (internal/regions) and solves them in parallel. With
	// zero RegionSlack it schedules regions as a DAG inside each sweep
	// and reproduces the dense reference bit for bit; with positive
	// slack it runs Jacobi rounds — every region to a local fixpoint
	// against frozen boundary states — trading a bounded error budget
	// for fewer synchronization points.
	SolverRegion
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverDense:
		return "dense"
	case SolverSparse:
		return "sparse"
	case SolverRegion:
		return "region"
	}
	return fmt.Sprintf("solver(%d)", int(s))
}

// SolverByName resolves a solver name ("dense", "sparse", "region").
func SolverByName(name string) (Solver, bool) {
	switch name {
	case "dense":
		return SolverDense, true
	case "sparse":
		return SolverSparse, true
	case "region":
		return SolverRegion, true
	}
	return SolverDense, false
}

// Prior selects the pre-assignment placement model of the early mode:
// the probability distribution over physical registers assumed for each
// variable before register allocation has run.
type Prior int

// Placement priors.
const (
	// PriorFirstFree concentrates probability geometrically on
	// low-numbered registers, modelling an ordered free list that
	// chooses "the same small set of registers ... again and again".
	PriorFirstFree Prior = iota
	// PriorUniform spreads probability evenly over the register file
	// (random assignment).
	PriorUniform
	// PriorChessboard spreads probability evenly over the first
	// chessboard colour (the cells the chessboard policy fills first).
	PriorChessboard
)

// String names the prior.
func (p Prior) String() string {
	switch p {
	case PriorFirstFree:
		return "first-free"
	case PriorUniform:
		return "uniform"
	case PriorChessboard:
		return "chessboard"
	}
	return fmt.Sprintf("prior(%d)", int(p))
}

// Config parameterizes the analysis.
type Config struct {
	// Tech supplies power and thermal coefficients; the zero value is
	// replaced by power.Default65nm().
	Tech power.Tech
	// FP is the register-file floorplan (nil = floorplan.Default()).
	FP *floorplan.Floorplan
	// Alloc selects post-assignment mode: the function's values carry
	// the physical registers recorded here. When nil the analysis runs
	// in early mode using PlacementPrior.
	Alloc *regalloc.Allocation
	// PlacementPrior is the early-mode placement model.
	PlacementPrior Prior

	// Solver selects the fixpoint iteration strategy (default
	// SolverDense, the Fig. 2 reference).
	Solver Solver

	// Regions requests the region count for SolverRegion (0 = a
	// deterministic default; the partitioner may produce fewer when the
	// CFG lacks legal cut positions). Part of the result identity.
	Regions int
	// RegionSlack is the extra boundary tolerance σ (kelvin) for
	// SolverRegion. Zero reproduces the dense reference exactly;
	// positive values stop the Jacobi rounds once boundary states move
	// by no more than Delta+σ, bounding the deviation from the true
	// fixpoint by (Delta+σ)/(1−ρ) for contraction ratio ρ. Part of the
	// result identity.
	RegionSlack float64
	// RegionWorkers bounds the goroutines solving regions concurrently
	// (0 = GOMAXPROCS). An execution control, never part of any result
	// identity: the solve is deterministic for any worker count.
	RegionWorkers int

	// Delta is δ: the convergence threshold in kelvin on the largest
	// per-instruction state change between sweeps (0 = 0.05 K).
	Delta float64
	// MaxIter caps the whole-procedure sweeps; hitting it flags
	// non-convergence (0 = 64).
	MaxIter int
	// Kappa is the time-acceleration factor: one whole-procedure sweep
	// models κ invocations of the procedure, each instruction's power
	// window scaled by its block's execution frequency. Larger κ
	// reaches the thermal fixpoint in fewer sweeps at more integration
	// work per sweep (0 = 100).
	Kappa float64
	// DefaultTrip is the loop trip estimate when the IR carries no
	// hint (0 = cfg.DefaultTrip).
	DefaultTrip int
	// JoinOp selects the merge operator (default JoinWeighted).
	JoinOp Join
	// WithLeakage adds temperature-dependent leakage power during
	// transfer.
	WithLeakage bool
	// ExtraDeposit, when non-nil, adds non-register-file energy (J)
	// for an instruction into the per-cell accumulator: functional
	// units, fetch/decode, caches. This is the hook behind the
	// whole-processor extension (paper §5: "analyses and rules
	// relating to all parts of the processor").
	ExtraDeposit func(in *ir.Instr, energy []float64)

	// Freq, when non-nil, supplies the block and edge frequencies
	// instead of the static estimate (nil = estimate with DefaultTrip):
	// the estimate the allocator already made (regalloc.Allocation's
	// Freq), or a measured profile — the profile-guided variant
	// bridging toward the feedback-driven flow the paper wants to
	// avoid. It must be indexed by the analyzed function's blocks.
	Freq *cfg.Freq

	// Ctx, when non-nil, is polled once per block evaluation inside
	// both solvers: cancelling it makes Analyze return the context's
	// error mid-fixpoint instead of only at engine boundaries, so job
	// deadlines and client disconnects cut long compiles exactly. It
	// is an execution control, never part of any result identity.
	Ctx context.Context

	// NoWarmStart starts every state at ambient, the raw Fig. 2
	// iteration (ablation). By default states start at the steady-state
	// solution of the frequency-averaged power map, which drastically
	// reduces sweeps to convergence.
	NoWarmStart bool
}

func (c Config) withDefaults() Config {
	if c.Tech == (power.Tech{}) {
		c.Tech = power.Default65nm()
	}
	if c.FP == nil {
		if c.Alloc != nil {
			c.FP = c.Alloc.FP
		} else {
			c.FP = floorplan.Default()
		}
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 64
	}
	if c.Kappa <= 0 {
		c.Kappa = 100
	}
	return c
}
