// Package thermflow is a compile-time thermal analysis toolkit for
// register files, reproducing "Thermal-Aware Data Flow Analysis"
// (Ayala, Atienza, Brisk — DAC 2009).
//
// The package compiles a small three-address IR with a pluggable
// register-assignment policy, predicts the register file's thermal
// state at every program point with a forward data-flow analysis
// (without executing the program), validates the prediction against a
// cycle-accurate trace-driven thermal simulation, and applies the
// thermal-aware optimizations the paper proposes (spilling critical
// variables, live-range splitting, thermal scheduling, register
// promotion, cool-down NOPs, thermal re-assignment).
//
// Quick start:
//
//	prog, _ := thermflow.Kernel("matmul")
//	c, _ := prog.Compile(thermflow.Options{Policy: thermflow.FirstFree})
//	fmt.Println(c.Thermal.Converged, c.Thermal.PeakTemp)
//	fmt.Println(c.Heatmap())
package thermflow

import (
	"context"
	"fmt"

	"thermflow/internal/floorplan"
	"thermflow/internal/ir"
	"thermflow/internal/opt"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/sim"
	"thermflow/internal/tdfa"
	"thermflow/internal/workload"
)

// Policy selects the register-assignment strategy; see the regalloc
// package for semantics. The three Fig. 1 policies are FirstFree,
// Random and Chessboard.
type Policy = regalloc.Policy

// Register-assignment policies.
const (
	FirstFree  = regalloc.FirstFree
	Random     = regalloc.Random
	Chessboard = regalloc.Chessboard
	RoundRobin = regalloc.RoundRobin
	Coldest    = regalloc.Coldest
	SpreadMax  = regalloc.SpreadMax
)

// Policies lists every policy.
var Policies = regalloc.Policies

// ErrSpillBudget is the sentinel matched by errors.Is when Compile
// fails because the register file is too small for the program: the
// allocator's spill rewriting outgrew its work budget instead of
// reducing pressure (e.g. NumRegs 1 on a multi-value program, where a
// binary operation needs two simultaneously live registers). The
// wrapped *AllocBudgetError carries the observed sizes.
var ErrSpillBudget = regalloc.ErrSpillBudget

// AllocBudgetError is the typed error behind ErrSpillBudget.
type AllocBudgetError = regalloc.BudgetError

// Solver selects the thermal analysis's fixpoint solver; see the tdfa
// package for semantics.
type Solver = tdfa.Solver

// Fixpoint solvers.
const (
	SolverDense  = tdfa.SolverDense
	SolverSparse = tdfa.SolverSparse
	SolverRegion = tdfa.SolverRegion
)

// SolverByName resolves a solver name ("dense", "sparse", "region").
func SolverByName(name string) (Solver, bool) { return tdfa.SolverByName(name) }

// PolicyByName resolves a policy name ("first-free", "random",
// "chessboard", "round-robin", "coldest", "spread-max").
func PolicyByName(name string) (Policy, bool) { return regalloc.PolicyByName(name) }

// Program is a parsed or generated IR function ready for compilation.
type Program struct {
	// Fn is the underlying IR function.
	Fn *ir.Function
	// Key, when non-empty, is a stable content identity for the
	// program *including its hooks*: two Programs with equal Key must
	// behave identically under Setup/Expect. It replaces the Program's
	// pointer in the batch cache key, so distinct Program values of one
	// keyed program (built-in kernels carry "kernel:<name>") share
	// results. Leave it empty for ad-hoc programs; hook-less programs
	// are identified by their IR text alone.
	Key string
	// Setup produces (args, memory) for execution at a given scale;
	// nil for programs without a canonical input.
	Setup func(scale int) ([]int64, sim.Memory)
	// Expect returns the expected result at a scale, or nil.
	Expect func(scale int) int64
}

// Parse reads a program in the textual IR syntax (see ir.Parse).
func Parse(src string) (*Program, error) {
	fn, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{Fn: fn}, nil
}

// ParseModule reads a multi-function program in the textual IR syntax
// (functions may call each other; recursion is rejected) and inlines
// the named root function into a single analyzable Program — the
// paper's single-procedure analysis context.
func ParseModule(src, root string) (*Program, error) {
	m, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	flat, err := opt.Inline(m, root)
	if err != nil {
		return nil, err
	}
	return &Program{Fn: flat}, nil
}

// Kernel returns a built-in benchmark kernel by name; see Kernels.
func Kernel(name string) (*Program, error) {
	k, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	// The stable Key names the kernel's Setup/Expect hooks by content
	// (they are part of the workload definition), so jobs compiling the
	// same kernel share one batch cache slot.
	return &Program{Fn: k.Fn, Key: "kernel:" + name, Setup: k.Setup, Expect: k.Expect}, nil
}

// Kernels lists the built-in kernel names.
func Kernels() []string {
	var names []string
	for _, k := range workload.All() {
		names = append(names, k.Name)
	}
	return names
}

// GenerateOptions mirrors workload.GenConfig for random programs.
type GenerateOptions = workload.GenConfig

// Generate builds a seeded random program (structured, terminating).
func Generate(opts GenerateOptions) *Program {
	return &Program{Fn: workload.Generate(opts)}
}

// MegaOptions mirrors workload.MegaConfig for huge single-function
// programs shaped so the region partitioner produces a wide DAG.
type MegaOptions = workload.MegaConfig

// GenerateMega builds a seeded mega-module: a dispatch chain fanning
// out into independent loop-nest arms, sized so a region-partitioned
// solve pays off. See MegaOptions for the knobs.
func GenerateMega(opts MegaOptions) *Program {
	return &Program{Fn: workload.GenerateMega(opts)}
}

// Options parameterizes Compile. The zero value compiles for the
// default 64-register 8×8 file with the first-free policy and default
// analysis settings.
type Options struct {
	// NumRegs is the register-file size (0 = 64).
	NumRegs int
	// Policy is the assignment policy (default FirstFree).
	Policy Policy
	// Seed drives the Random policy.
	Seed int64
	// HeatSeed pre-heats registers for the Coldest policy.
	HeatSeed []float64

	// GridW, GridH choose the floorplan grid (0 = 8×8); Layout its
	// register placement.
	GridW, GridH int
	// Layout is the register-to-cell placement (default row-major).
	Layout floorplan.Layout

	// Tech overrides the technology parameters (zero = 65 nm default).
	Tech power.Tech

	// Solver selects the analysis fixpoint solver (default
	// SolverDense, the paper-faithful Fig. 2 iteration; SolverSparse
	// is the worklist variant differentially tested against it;
	// SolverRegion partitions the CFG into regions and solves them in
	// parallel — byte-identical to dense when RegionDelta is 0).
	Solver Solver
	// Regions bounds the region count for SolverRegion (0 = the
	// solver's default). Part of the result identity: the partition
	// shapes slack-mode convergence.
	Regions int
	// RegionDelta is SolverRegion's extra boundary slack σ in kelvin.
	// 0 keeps exact mode (byte-identical to dense); σ > 0 lets each
	// region run to a local fixpoint per round and stops when no
	// boundary state moves more than Delta+σ, trading a bounded error
	// of (Delta+σ)/(1−ρ) for fewer exchange rounds.
	RegionDelta float64

	// Delta is the analysis convergence threshold δ in kelvin (0 =
	// 0.05).
	Delta float64
	// MaxIter caps analysis sweeps (0 = 64).
	MaxIter int
	// Kappa is the time-acceleration factor (0 = 100).
	Kappa float64
	// JoinOp selects the merge operator at control-flow joins.
	JoinOp tdfa.Join
	// WithLeakage adds temperature-dependent leakage to the analysis.
	WithLeakage bool
	// NoWarmStart disables the steady-state warm start (raw Fig. 2
	// iteration).
	NoWarmStart bool
	// DefaultTrip is the assumed loop trip count when the IR has no
	// hint (0 = 10).
	DefaultTrip int

	// SkipAnalysis compiles (allocates) without running the thermal
	// analysis.
	SkipAnalysis bool
}

func (o Options) numRegs() int {
	if o.NumRegs <= 0 {
		return 64
	}
	return o.NumRegs
}

func (o Options) tech() power.Tech {
	if o.Tech == (power.Tech{}) {
		return power.Default65nm()
	}
	return o.Tech
}

func (o Options) floorplan() (*floorplan.Floorplan, error) {
	w, h := o.GridW, o.GridH
	if w <= 0 || h <= 0 {
		w, h = 8, 8
	}
	return floorplan.New(o.numRegs(), w, h, o.tech().CellEdge, o.Layout)
}

// Compiled bundles the outcome of compilation: the allocated function,
// the register assignment and the thermal analysis result.
type Compiled struct {
	// Program is the source program (unmodified).
	Program *Program
	// Alloc holds the allocated function (Alloc.Fn) and the
	// value-to-register assignment.
	Alloc *regalloc.Allocation
	// Thermal is the analysis result (nil when SkipAnalysis was set).
	Thermal *tdfa.Result
	// Opts echoes the compile options.
	Opts Options

	fp   *floorplan.Floorplan
	tech power.Tech
}

// Compile allocates registers under the chosen policy and runs the
// thermal data-flow analysis on the result.
func (p *Program) Compile(opts Options) (*Compiled, error) {
	return p.CompileContext(context.Background(), opts)
}

// CompileContext is Compile bounded by ctx: the thermal analysis polls
// the context between block evaluations, so cancellation — a job
// deadline, a disconnected client — aborts a long compile mid-fixpoint
// instead of at the next engine boundary. The context never influences
// the result or its cache identity, only whether the compile finishes.
func (p *Program) CompileContext(ctx context.Context, opts Options) (*Compiled, error) {
	fp, err := opts.floorplan()
	if err != nil {
		return nil, err
	}
	tech := opts.tech()
	alloc, err := regalloc.Allocate(p.Fn, regalloc.Config{
		NumRegs:     opts.numRegs(),
		Policy:      opts.Policy,
		Seed:        opts.Seed,
		HeatSeed:    opts.HeatSeed,
		FP:          fp,
		DefaultTrip: opts.DefaultTrip,
	})
	if err != nil {
		return nil, fmt.Errorf("thermflow: allocation failed: %w", err)
	}
	c := &Compiled{Program: p, Alloc: alloc, Opts: opts, fp: fp, tech: tech}
	if !opts.SkipAnalysis {
		done := observeSolver(ctx, opts.Solver)
		res, err := tdfa.Analyze(alloc.Fn, tdfa.Config{
			Tech:        tech,
			FP:          fp,
			Alloc:       alloc,
			Ctx:         ctx,
			Solver:      opts.Solver,
			Regions:     opts.Regions,
			RegionSlack: opts.RegionDelta,
			Delta:       opts.Delta,
			MaxIter:     opts.MaxIter,
			Kappa:       opts.Kappa,
			JoinOp:      opts.JoinOp,
			WithLeakage: opts.WithLeakage,
			NoWarmStart: opts.NoWarmStart,
			DefaultTrip: opts.DefaultTrip,
			Freq:        alloc.Freq,
		})
		if err != nil {
			done(false)
			return nil, fmt.Errorf("thermflow: analysis failed: %w", err)
		}
		done(res.Converged)
		c.Thermal = res
	}
	return c, nil
}

// AnalyzeEarly runs the pre-allocation predictive analysis (paper §4's
// "more ambitious possibility"): no register assignment exists yet, so
// placement follows the policy prior. The returned result ranks the
// variables most likely to create hot spots.
func (p *Program) AnalyzeEarly(prior tdfa.Prior, opts Options) (*tdfa.Result, error) {
	fp, err := opts.floorplan()
	if err != nil {
		return nil, err
	}
	return tdfa.Analyze(p.Fn, tdfa.Config{
		Tech:           opts.tech(),
		FP:             fp,
		PlacementPrior: prior,
		Solver:         opts.Solver,
		Regions:        opts.Regions,
		RegionSlack:    opts.RegionDelta,
		Delta:          opts.Delta,
		MaxIter:        opts.MaxIter,
		Kappa:          opts.Kappa,
		JoinOp:         opts.JoinOp,
		WithLeakage:    opts.WithLeakage,
		NoWarmStart:    opts.NoWarmStart,
		DefaultTrip:    opts.DefaultTrip,
	})
}

// Floorplan returns the register-file floorplan used by the compile.
func (c *Compiled) Floorplan() *floorplan.Floorplan { return c.fp }

// Tech returns the technology parameters used by the compile.
func (c *Compiled) Tech() power.Tech { return c.tech }
