package thermflow

// System-level invariants checked across randomized inputs: the
// linearity of the RC model, allocator soundness over random programs ×
// policies × register counts, and end-to-end determinism.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermflow/internal/analysis"
	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/interference"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/sim"
	"thermflow/internal/tdfa"
	"thermflow/internal/thermal"
	"thermflow/internal/workload"
)

// The RC model is linear: the steady-state rise of a summed power map
// equals the sum of the individual rises.
func TestThermalSuperposition(t *testing.T) {
	grid, err := thermal.NewGrid(8, 8, power.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p1 := make([]float64, 64)
		p2 := make([]float64, 64)
		for i := range p1 {
			if rng.Intn(4) == 0 {
				p1[i] = rng.Float64() * 2e-3
			}
			if rng.Intn(4) == 0 {
				p2[i] = rng.Float64() * 2e-3
			}
		}
		sum := make([]float64, 64)
		for i := range sum {
			sum[i] = p1[i] + p2[i]
		}
		s1 := grid.SteadyState(p1)
		s2 := grid.SteadyState(p2)
		s12 := grid.SteadyState(sum)
		for c := range s12 {
			rise := (s1[c] - grid.TAmb) + (s2[c] - grid.TAmb)
			if d := s12[c] - grid.TAmb - rise; d > 1e-6 || d < -1e-6 {
				t.Fatalf("trial %d cell %d: superposition violated by %g K", trial, c, d)
			}
		}
	}
}

// Allocation soundness: across random programs, policies and register
// counts, interfering values never share a register, and the allocated
// program computes the same result as the original.
func TestAllocatorSoundnessRandomized(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		prog := workload.Generate(workload.GenConfig{
			Seed: seed, Pressure: 10 + int(seed)*3, Irregularity: float64(seed) / 5,
		})
		want, err := sim.Run(prog, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pol := range regalloc.Policies {
			for _, k := range []int{8, 16, 64} {
				a, err := regalloc.Allocate(prog, regalloc.Config{
					NumRegs: k, Policy: pol, Seed: seed,
				})
				if err != nil {
					t.Fatalf("seed %d %v K=%d: %v", seed, pol, k, err)
				}
				// No interfering pair shares a register.
				g := cfg.Build(a.Fn)
				lv := analysis.ComputeLiveness(g)
				ig := interference.Build(g, lv)
				for _, v := range ig.Nodes() {
					for _, u := range ig.Neighbors(v) {
						if ig.NeedsRegister(u) && a.RegOf[v] >= 0 && a.RegOf[v] == a.RegOf[u] {
							t.Fatalf("seed %d %v K=%d: values %s and %s share register %d",
								seed, pol, k,
								a.Fn.Values()[v].Name, a.Fn.Values()[u].Name, a.RegOf[v])
						}
					}
				}
				got, err := sim.Run(a.Fn, sim.Options{})
				if err != nil {
					t.Fatalf("seed %d %v K=%d run: %v", seed, pol, k, err)
				}
				if got.Ret != want.Ret {
					t.Fatalf("seed %d %v K=%d: result changed %d -> %d",
						seed, pol, k, want.Ret, got.Ret)
				}
			}
		}
	}
}

// End-to-end determinism: compiling and analyzing the same program
// twice yields identical predictions; running it twice yields identical
// traces.
func TestEndToEndDeterminism(t *testing.T) {
	build := func() (*Compiled, *RunResult) {
		p, err := Kernel("fir")
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(Options{Policy: Random, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(24)
		if err != nil {
			t.Fatal(err)
		}
		return c, r
	}
	c1, r1 := build()
	c2, r2 := build()
	if c1.Thermal.PeakTemp != c2.Thermal.PeakTemp {
		t.Errorf("peaks differ: %g vs %g", c1.Thermal.PeakTemp, c2.Thermal.PeakTemp)
	}
	if c1.Thermal.Iterations != c2.Thermal.Iterations {
		t.Errorf("iterations differ: %d vs %d", c1.Thermal.Iterations, c2.Thermal.Iterations)
	}
	if d := c1.Thermal.Peak.MaxDelta(c2.Thermal.Peak); d != 0 {
		t.Errorf("peak states differ by %g", d)
	}
	if r1.Cycles != r2.Cycles || r1.Ret != r2.Ret {
		t.Error("runs differ")
	}
	if len(r1.Trace.Accesses) != len(r2.Trace.Accesses) {
		t.Fatal("trace lengths differ")
	}
	for i := range r1.Trace.Accesses {
		if r1.Trace.Accesses[i] != r2.Trace.Accesses[i] {
			t.Fatalf("traces diverge at access %d", i)
		}
	}
}

// The predicted rise scales monotonically with the access energy: a
// hotter technology can only raise every cell.
func TestPredictionMonotoneInAccessEnergy(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	base := power.Default65nm()
	hot := base
	hot.EnergyRead *= 2
	hot.EnergyWrite *= 2
	cBase, err := p.Compile(Options{Tech: base})
	if err != nil {
		t.Fatal(err)
	}
	cHot, err := p.Compile(Options{Tech: hot})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cBase.Thermal.Mean {
		if cHot.Thermal.Mean[i] < cBase.Thermal.Mean[i]-1e-9 {
			t.Fatalf("cell %d cooled under doubled access energy", i)
		}
	}
	if cHot.Thermal.PeakTemp <= cBase.Thermal.PeakTemp {
		t.Error("peak did not rise with access energy")
	}
}

// Profile-guided analysis must agree with the static analysis on
// programs whose static frequency estimates are already exact, and
// must not be worse on any kernel.
func TestProfileGuidedConsistency(t *testing.T) {
	for _, name := range []string{"dot", "fir", "checksum"} {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(Options{Policy: FirstFree})
		if err != nil {
			t.Fatal(err)
		}
		pg, err := c.ProfileGuided(64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !pg.Thermal.Converged {
			t.Errorf("%s: profiled analysis did not converge", name)
		}
		// The trip hints match the canonical scale for these kernels
		// only approximately; the profiled peak must stay in the same
		// regime (within a few K).
		d := pg.Thermal.PeakTemp - c.Thermal.PeakTemp
		if d < -6 || d > 6 {
			t.Errorf("%s: profiled peak %g K vs static %g K", name,
				pg.Thermal.PeakTemp, c.Thermal.PeakTemp)
		}
	}
}

// Differential property: the sparse worklist solver must match the
// dense reference solver within δ per instruction on a broad corpus of
// seeded random programs and on every built-in kernel, with equal
// convergence verdicts and consistent hot-spot rankings.
func TestSparseDenseDifferential(t *testing.T) {
	check := func(t *testing.T, name string, p *Program, opts Options) {
		t.Helper()
		dense := opts
		dense.Solver = SolverDense
		sparse := opts
		sparse.Solver = SolverSparse
		cd, err := p.Compile(dense)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		cs, err := p.Compile(sparse)
		if err != nil {
			t.Fatalf("%s sparse: %v", name, err)
		}
		delta := opts.Delta
		if delta <= 0 {
			delta = 0.05
		}
		if cd.Thermal.Converged != cs.Thermal.Converged {
			t.Errorf("%s: convergence mismatch dense=%v sparse=%v",
				name, cd.Thermal.Converged, cs.Thermal.Converged)
		}
		for i := range cd.Thermal.InstrState {
			if d := cd.Thermal.InstrState[i].MaxDelta(cs.Thermal.InstrState[i]); d > delta {
				t.Fatalf("%s: instruction %d differs by %g K (δ=%g)", name, i, d, delta)
			}
		}
		if d := cd.Thermal.PeakTemp - cs.Thermal.PeakTemp; d > delta || d < -delta {
			t.Errorf("%s: peaks differ: dense=%g sparse=%g", name, cd.Thermal.PeakTemp, cs.Thermal.PeakTemp)
		}
		// Hot-spot rankings must agree up to δ-ties: every register the
		// two solvers rank at the same position must have peaks within δ
		// of each other.
		hd, hs := cd.Thermal.HottestRegs(4), cs.Thermal.HottestRegs(4)
		for i := range hd {
			td, ts := cd.Thermal.RegPeak[hd[i]], cs.Thermal.RegPeak[hs[i]]
			if d := td - ts; d > delta || d < -delta {
				t.Errorf("%s: hot-spot rank %d differs beyond δ: reg %d (%.3f K) vs reg %d (%.3f K)",
					name, i, hd[i], td, hs[i], ts)
			}
		}
		// Critical-variable ranking: the top entry must agree, or tie
		// within 1% of its score.
		critD, critS := cd.Thermal.TopCritical(1), cs.Thermal.TopCritical(1)
		if len(critD) != len(critS) {
			t.Fatalf("%s: critical ranking lengths differ", name)
		}
		if len(critD) == 1 && critD[0].Value.Name != critS[0].Value.Name {
			rel := critD[0].Score - critS[0].Score
			if rel < 0 {
				rel = -rel
			}
			if critD[0].Score > 0 && rel/critD[0].Score > 0.01 {
				t.Errorf("%s: top critical variable differs: %s (%.3g) vs %s (%.3g)",
					name, critD[0].Value.Name, critD[0].Score, critS[0].Value.Name, critS[0].Score)
			}
		}
	}

	// 50+ seeded random programs spanning regular to highly irregular
	// shapes, different joins, leakage, and cold starts.
	for seed := int64(0); seed < 50; seed++ {
		opts := Options{Policy: Policies[int(seed)%len(Policies)], Seed: seed}
		switch seed % 5 {
		case 1:
			opts.JoinOp = tdfa.JoinUnweighted
		case 2:
			opts.JoinOp = tdfa.JoinMax
		case 3:
			opts.WithLeakage = true
		case 4:
			opts.NoWarmStart = true
			opts.MaxIter = 4096
		}
		p := Generate(GenerateOptions{
			Seed:         seed,
			Pressure:     6 + int(seed)%12,
			Segments:     2 + int(seed)%4,
			LoopDepth:    1 + int(seed)%3,
			Irregularity: float64(seed%10) / 10,
		})
		check(t, fmt.Sprintf("gen-seed-%d", seed), p, opts)
	}
	for _, name := range Kernels() {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "kernel-"+name, p, Options{})
	}
}

// Differential property: at σ=0 the region-partitioned solver is not
// an approximation — its wave schedule replays the dense solver's read
// pattern exactly, so every analysis output must be bit-identical to
// the dense reference across random programs (all region counts), every
// kernel, and generated mega-modules.
func TestRegionDenseDifferential(t *testing.T) {
	check := func(t *testing.T, name string, p *Program, opts Options) {
		t.Helper()
		dense := opts
		dense.Solver = SolverDense
		dense.Regions = 0
		region := opts
		region.Solver = SolverRegion
		cd, err := p.Compile(dense)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		cr, err := p.Compile(region)
		if err != nil {
			t.Fatalf("%s region: %v", name, err)
		}
		td, tr := cd.Thermal, cr.Thermal
		if td.Converged != tr.Converged || td.Iterations != tr.Iterations ||
			td.FinalDelta != tr.FinalDelta || td.BlockSweeps != tr.BlockSweeps ||
			td.PeakTemp != tr.PeakTemp {
			t.Fatalf("%s: scalar outputs diverge: conv %v/%v iter %d/%d Δ %v/%v sweeps %d/%d peak %v/%v",
				name, td.Converged, tr.Converged, td.Iterations, tr.Iterations,
				td.FinalDelta, tr.FinalDelta, td.BlockSweeps, tr.BlockSweeps,
				td.PeakTemp, tr.PeakTemp)
		}
		for i := range td.InstrState {
			if d := td.InstrState[i].MaxDelta(tr.InstrState[i]); d != 0 {
				t.Fatalf("%s: instruction %d state differs by %g K", name, i, d)
			}
		}
		for i := range td.BlockIn {
			if d := td.BlockIn[i].MaxDelta(tr.BlockIn[i]); d != 0 {
				t.Fatalf("%s: block %d in-state differs by %g K", name, i, d)
			}
		}
		if d := td.Peak.MaxDelta(tr.Peak); d != 0 {
			t.Fatalf("%s: peak states differ by %g K", name, d)
		}
		for i := range td.RegPeak {
			if td.RegPeak[i] != tr.RegPeak[i] {
				t.Fatalf("%s: reg %d peak %v vs %v", name, i, td.RegPeak[i], tr.RegPeak[i])
			}
		}
	}

	for seed := int64(0); seed < 50; seed++ {
		opts := Options{
			Policy:  Policies[int(seed)%len(Policies)],
			Seed:    seed,
			Regions: []int{0, 2, 3, 4, 8, 1 << 16}[seed%6],
		}
		switch seed % 5 {
		case 1:
			opts.JoinOp = tdfa.JoinUnweighted
		case 2:
			opts.JoinOp = tdfa.JoinMax
		case 3:
			opts.WithLeakage = true
		case 4:
			opts.NoWarmStart = true
			opts.MaxIter = 4096
		}
		p := Generate(GenerateOptions{
			Seed:         seed,
			Pressure:     6 + int(seed)%12,
			Segments:     2 + int(seed)%4,
			LoopDepth:    1 + int(seed)%3,
			Irregularity: float64(seed%10) / 10,
		})
		check(t, fmt.Sprintf("gen-seed-%d", seed), p, opts)
	}
	for _, name := range Kernels() {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "kernel-"+name, p, Options{Regions: 3})
	}
	// Mega-modules are the region plane's target workload: wide call
	// fabrics whose partitions actually fan out.
	for _, seed := range []int64{1, 2} {
		p := GenerateMega(MegaOptions{
			Seed: seed, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
		})
		check(t, fmt.Sprintf("mega-seed-%d", seed), p, Options{Regions: 6})
	}
}

// Compile estimates block frequencies once, in the allocator, and hands
// that estimate to the analysis. Its result must be the one of a
// separate Allocate followed by Analyze with Freq nil, which estimates
// again on the allocated function, bit for bit.
func TestCompileMatchesSeparateAllocateAnalyze(t *testing.T) {
	check := func(t *testing.T, name string, p *Program, opts Options) *Compiled {
		t.Helper()
		c, err := p.Compile(opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		fp, err := opts.floorplan()
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := regalloc.Allocate(p.Fn, regalloc.Config{
			NumRegs: opts.numRegs(), Policy: opts.Policy, Seed: opts.Seed,
			HeatSeed: opts.HeatSeed, FP: fp, DefaultTrip: opts.DefaultTrip,
		})
		if err != nil {
			t.Fatalf("%s: allocate: %v", name, err)
		}
		ref, err := tdfa.Analyze(alloc.Fn, tdfa.Config{
			Tech: opts.tech(), FP: fp, Alloc: alloc, Solver: opts.Solver,
			Delta: opts.Delta, MaxIter: opts.MaxIter, Kappa: opts.Kappa,
			JoinOp: opts.JoinOp, WithLeakage: opts.WithLeakage,
			NoWarmStart: opts.NoWarmStart, DefaultTrip: opts.DefaultTrip,
		})
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		got := c.Thermal
		if got.Converged != ref.Converged || got.Iterations != ref.Iterations ||
			math.Float64bits(got.PeakTemp) != math.Float64bits(ref.PeakTemp) {
			t.Fatalf("%s: conv %v/%v iter %d/%d peak %v/%v", name,
				got.Converged, ref.Converged, got.Iterations, ref.Iterations, got.PeakTemp, ref.PeakTemp)
		}
		if !sameBits(got.RegPeak, ref.RegPeak) {
			t.Fatalf("%s: register peaks differ", name)
		}
		if len(got.InstrState) != len(ref.InstrState) {
			t.Fatalf("%s: %d instruction states, want %d", name, len(got.InstrState), len(ref.InstrState))
		}
		for i := range got.InstrState {
			if !sameBits(got.InstrState[i], ref.InstrState[i]) {
				t.Fatalf("%s: instruction %d state differs", name, i)
			}
		}
		return c
	}

	for _, name := range Kernels() {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies {
			for _, l := range []floorplan.Layout{floorplan.RowMajor, floorplan.Checker} {
				for _, cold := range []bool{false, true} {
					opts := Options{Policy: pol, Layout: l, Seed: 1, NoWarmStart: cold}
					check(t, fmt.Sprintf("%s/%s/%s/cold=%v", name, pol, l, cold), p, opts)
				}
			}
		}
	}
	spilled := 0
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(GenerateOptions{
			Seed: seed, Pressure: 14 + int(seed)%7, Segments: 4 + int(seed)%3, LoopDepth: 2,
			Irregularity: float64(seed%4) / 10, TripCount: 4 + int(seed)%5,
		})
		opts := Options{
			NumRegs: 16, GridW: 4, GridH: 4, Seed: seed,
			Policy:      Policies[int(seed)%len(Policies)],
			NoWarmStart: seed%2 == 1,
		}
		if c := check(t, fmt.Sprintf("gen-seed-%d", seed), p, opts); c.Alloc.Rounds > 1 {
			spilled++
		}
	}
	if spilled < 20 {
		t.Errorf("only %d of 40 generated programs spilled; the corpus no longer covers multi-round allocations", spilled)
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := GenerateMega(MegaOptions{
			Seed: seed, Arms: 4, Depth: 2, OpsPerBlock: 6, Pressure: 12, TripCount: 6 + int(seed),
		})
		check(t, fmt.Sprintf("mega-seed-%d", seed), p, Options{
			Policy: Policies[int(seed)%len(Policies)], NoWarmStart: true, MaxIter: 4096,
		})
	}
}

// sameBits reports whether two vectors hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Round-trip: every generated program prints and re-parses to an
// equivalent program (same execution result).
func TestPrintParseExecutionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fn := workload.Generate(workload.GenConfig{Seed: seed, Irregularity: 0.7})
		want, err := sim.Run(fn, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p2, err := Parse(fn.String())
		if err != nil {
			t.Fatalf("seed %d reparse: %v", seed, err)
		}
		got, err := sim.Run(p2.Fn, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if got.Ret != want.Ret || got.Cycles != want.Cycles {
			t.Fatalf("seed %d: round trip changed execution (%d,%d) -> (%d,%d)",
				seed, want.Ret, want.Cycles, got.Ret, got.Cycles)
		}
	}
}
