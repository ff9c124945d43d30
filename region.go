package thermflow

import (
	"fmt"

	"thermflow/internal/floorplan"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/tdfa"
)

// This file lifts the tdfa region-session protocol to the JobSpec
// level: RegionSession is what a distributed coordinator (the gateway)
// and the per-region backends both construct — deterministically, from
// the spec alone — to solve one huge program across a pool. The
// coordinator keeps the authoritative boundary states and drives
// rounds; backends advance their regions and ship result fragments
// back; Finalize assembles a *Compiled indistinguishable from a
// single-process compile of the same spec.

// RegionSession is one participant's state in a distributed region
// solve. Not safe for concurrent use; callers serialize access.
type RegionSession struct {
	prog  *Program
	opts  Options
	alloc *regalloc.Allocation
	fp    *floorplan.Floorplan
	tech  power.Tech
	sess  *tdfa.RegionSession
	waves [][]int
}

// NewRegionSession builds a session from a job spec. Construction is
// deterministic: every participant handed the same spec derives the
// identical partition, initial states and block numbering. The spec's
// solver is forced to SolverRegion; SkipAnalysis specs are rejected —
// a region job exists to run the analysis.
func NewRegionSession(spec JobSpec) (*RegionSession, error) {
	opts := spec.Opts
	if opts.SkipAnalysis {
		return nil, fmt.Errorf("thermflow: region solve with skip_analysis set")
	}
	opts.Solver = SolverRegion
	p, err := Parse(spec.Source)
	if err != nil {
		return nil, fmt.Errorf("thermflow: region session source: %w", err)
	}
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
	sess, err := tdfa.NewRegionSession(alloc.Fn, tdfa.Config{
		Tech:        tech,
		FP:          fp,
		Alloc:       alloc,
		Solver:      tdfa.SolverRegion,
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
		return nil, fmt.Errorf("thermflow: region session: %w", err)
	}
	s := &RegionSession{prog: p, opts: opts, alloc: alloc, fp: fp, tech: tech, sess: sess}
	s.waves = regionWaves(sess)
	return s, nil
}

// regionWaves layers the region DAG by longest-path depth: regions in
// one wave share no path, so a coordinator may step them concurrently.
// Region index order is a topological order (cut edges always point
// from lower to higher index), so one forward pass suffices.
func regionWaves(sess *tdfa.RegionSession) [][]int {
	plan := sess.Plan()
	nr := plan.NumRegions()
	depth := make([]int, nr)
	maxDepth := 0
	for _, c := range plan.Cuts {
		if d := depth[c.FromRegion] + 1; d > depth[c.ToRegion] {
			depth[c.ToRegion] = d
			if d > maxDepth {
				maxDepth = d
			}
		}
	}
	waves := make([][]int, maxDepth+1)
	for r := 0; r < nr; r++ {
		waves[depth[r]] = append(waves[depth[r]], r)
	}
	return waves
}

// NumRegions returns the partition's region count.
func (s *RegionSession) NumRegions() int { return s.sess.Plan().NumRegions() }

// RegionSize returns region r's block count — the per-step sweep cost,
// for BlockSweeps accounting.
func (s *RegionSession) RegionSize(r int) int {
	return len(s.sess.Plan().Regions[r].Blocks)
}

// Waves returns the region DAG's longest-path layering: wave i's
// regions depend only on earlier waves, so an exact-mode coordinator
// sweeps wave by wave with every region in a wave in flight at once.
// Slack-mode coordinators ignore the layering and run all regions per
// round (Jacobi iteration against frozen boundary states).
func (s *RegionSession) Waves() [][]int { return s.waves }

// Slack returns the configured boundary slack σ (0 = exact mode).
func (s *RegionSession) Slack() float64 { return s.sess.Slack() }

// Delta returns the convergence threshold δ.
func (s *RegionSession) Delta() float64 { return s.sess.Delta() }

// MaxIter returns the sweep/round cap.
func (s *RegionSession) MaxIter() int { return s.sess.MaxIter() }

// InputBlocks returns the foreign block indices whose out-states
// region r reads before a step.
func (s *RegionSession) InputBlocks(r int) []int { return s.sess.InputBlocks(r) }

// OutputBlocks returns region r's block indices whose out-states other
// regions read after a step.
func (s *RegionSession) OutputBlocks(r int) []int { return s.sess.OutputBlocks(r) }

// State returns a copy of block b's current out-state.
func (s *RegionSession) State(b int) []float64 { return s.sess.State(b) }

// SetState installs block b's out-state (length-checked).
func (s *RegionSession) SetState(b int, vals []float64) error { return s.sess.SetState(b, vals) }

// SweepRegion performs one exact-mode sweep of region r, returning the
// largest per-instruction state change.
func (s *RegionSession) SweepRegion(r int) (float64, error) { return s.sess.SweepRegion(r) }

// SolveRegionLocal runs region r to its local fixpoint against the
// currently installed foreign states (slack mode), returning the last
// sweep's delta and the sweep count.
func (s *RegionSession) SolveRegionLocal(r int) (float64, int, error) {
	return s.sess.SolveRegionLocal(r)
}

// Fragment exports region r's share of the final result.
func (s *RegionSession) Fragment(r int) (blockIn, instr [][]float64, err error) {
	return s.sess.Fragment(r)
}

// AbsorbFragment merges another participant's Fragment(r) into this
// session's result.
func (s *RegionSession) AbsorbFragment(r int, blockIn, instr [][]float64) error {
	return s.sess.AbsorbFragment(r, blockIn, instr)
}

// Finalize stamps the convergence report, derives the aggregate
// summaries and wraps everything as a *Compiled — the same shape a
// local Compile of the spec would produce.
func (s *RegionSession) Finalize(iterations int, deltaHistory []float64, finalDelta float64, converged bool, blockSweeps int) *Compiled {
	res := s.sess.Finalize(iterations, deltaHistory, finalDelta, converged, blockSweeps)
	return &Compiled{
		Program: s.prog,
		Alloc:   s.alloc,
		Thermal: res,
		Opts:    s.opts,
		fp:      s.fp,
		tech:    s.tech,
	}
}
