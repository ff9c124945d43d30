package tdfa

import (
	"fmt"
	"math"
	"testing"

	"thermflow/internal/regalloc"
	"thermflow/internal/workload"
)

// statesEqual asserts bit-identity of two state slices.
func statesEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: cell %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestRegionExactMatchesDense asserts the exact-mode region solve is
// byte-identical to the dense reference in every result field, across
// generated modules with real DAG width and the hot-loop kernel.
func TestRegionExactMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fn := workload.Generate(workload.GenConfig{
				Seed: seed, Segments: 3 + int(seed%3), LoopDepth: 1 + int(seed%2),
			})
			al, err := regalloc.Allocate(fn, regalloc.Config{NumRegs: 32})
			if err != nil {
				t.Fatal(err)
			}
			dense, err := Analyze(al.Fn, Config{Alloc: al, Solver: SolverDense})
			if err != nil {
				t.Fatal(err)
			}
			region, err := Analyze(al.Fn, Config{Alloc: al, Solver: SolverRegion, Regions: 4, RegionWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if dense.Converged != region.Converged || dense.Iterations != region.Iterations {
				t.Fatalf("convergence differs: dense %v/%d, region %v/%d",
					dense.Converged, dense.Iterations, region.Converged, region.Iterations)
			}
			if dense.FinalDelta != region.FinalDelta || dense.BlockSweeps != region.BlockSweeps {
				t.Fatalf("finalΔ %v vs %v, sweeps %d vs %d",
					dense.FinalDelta, region.FinalDelta, dense.BlockSweeps, region.BlockSweeps)
			}
			for i := range dense.DeltaHistory {
				if dense.DeltaHistory[i] != region.DeltaHistory[i] {
					t.Fatalf("delta history [%d] differs", i)
				}
			}
			for i := range dense.InstrState {
				statesEqual(t, fmt.Sprintf("instr %d", i), dense.InstrState[i], region.InstrState[i])
			}
			for i := range dense.BlockIn {
				statesEqual(t, fmt.Sprintf("blockIn %d", i), dense.BlockIn[i], region.BlockIn[i])
			}
			statesEqual(t, "peak", dense.Peak, region.Peak)
			statesEqual(t, "mean", dense.Mean, region.Mean)
			if dense.PeakTemp != region.PeakTemp {
				t.Fatalf("peakTemp %v vs %v", dense.PeakTemp, region.PeakTemp)
			}
		})
	}
}

// TestRegionSlackWithinBudget asserts slack mode converges and lands
// within the documented error budget of the dense fixpoint.
func TestRegionSlackWithinBudget(t *testing.T) {
	fn := workload.Generate(workload.GenConfig{Seed: 11, Segments: 5, LoopDepth: 2})
	al, err := regalloc.Allocate(fn, regalloc.Config{NumRegs: 32})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Analyze(al.Fn, Config{Alloc: al, Solver: SolverDense})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 0.02
	region, err := Analyze(al.Fn, Config{Alloc: al, Solver: SolverRegion, Regions: 6, RegionSlack: slack})
	if err != nil {
		t.Fatal(err)
	}
	if !region.Converged {
		t.Fatalf("slack solve did not converge: rounds=%d Δ=%g", region.Iterations, region.FinalDelta)
	}
	// Budget: (δ+σ)/(1−ρ) with ρ well below 1 for the warm-started
	// exchange; 5× is a generous cover for the observed contraction.
	budget := 5 * (dense.cfg.Delta + slack)
	if d := math.Abs(dense.PeakTemp - region.PeakTemp); d > budget {
		t.Fatalf("peakTemp off by %g, budget %g", d, budget)
	}
	for i := range dense.InstrState {
		if d := region.InstrState[i].MaxDelta(dense.InstrState[i]); d > budget {
			t.Fatalf("instr %d off by %g, budget %g", i, d, budget)
		}
	}
}
