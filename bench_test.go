package thermflow_test

// One benchmark per reproduced figure/experiment (regenerating the
// corresponding table or map each iteration), plus micro-benchmarks of
// the core pipeline stages. Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks use the drivers in
// internal/experiments with Quick sweeps; `go run ./cmd/experiments`
// prints the full tables.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"thermflow"
	"thermflow/internal/batch"
	"thermflow/internal/experiments"
	"thermflow/internal/floorplan"
	"thermflow/internal/power"
	"thermflow/internal/sim"
	"thermflow/internal/thermal"
)

// quick is the shared benchmark configuration (no output).
var quick = experiments.Config{Quick: true}

// BenchmarkFig1PolicyMaps regenerates Figure 1: thermal maps and
// metrics for the first-free, random, chessboard (and coldest)
// register-assignment policies.
func BenchmarkFig1PolicyMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Convergence regenerates Figure 2's behaviour: the δ
// sweep and the irregular-data-usage sweep of the fixpoint iteration.
func BenchmarkFig2Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Accuracy regenerates the prediction-accuracy table
// (compile-time analysis vs trace-driven ground truth).
func BenchmarkE3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Granularity regenerates the thermal-grid granularity
// sweep (fidelity vs analysis cost).
func BenchmarkE4Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Pressure regenerates the register-pressure sweep (the
// chessboard breakdown).
func BenchmarkE5Pressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Optimizations regenerates the optimization-efficacy table
// (every §4 transform in its target scenario).
func BenchmarkE6Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Reliability regenerates the leakage/MTTF table.
func BenchmarkE7Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8BankGating regenerates the bank-gating vs spreading
// trade-off table.
func BenchmarkE8BankGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9WholeChip regenerates the whole-processor unit
// temperature table (§5 extension).
func BenchmarkE9WholeChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10VLIWBinding regenerates the VLIW slot-binding comparison
// ([4], the §1 sibling technique).
func BenchmarkE10VLIWBinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Kappa regenerates the κ ablation.
func BenchmarkA1Kappa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A1(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2Join regenerates the join-operator ablation.
func BenchmarkA2Join(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A2(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batch engine and solver benchmarks ---

// fig1SweepJobs builds the Figure 1 policy sweep as batch jobs: the
// same workload compiled under first-free, random (five assignment
// seeds), chessboard and coldest — the per-figure fan-out the batch
// engine parallelizes.
func fig1SweepJobs() []thermflow.CompileJob {
	p := thermflow.Generate(thermflow.GenerateOptions{
		Seed: 42, Pressure: 16, Segments: 2, LoopDepth: 3, OpsPerBlock: 5, TripCount: 24,
	})
	var jobs []thermflow.CompileJob
	add := func(pol thermflow.Policy, seed int64) {
		jobs = append(jobs, thermflow.CompileJob{Program: p, Opts: thermflow.Options{Policy: pol, Seed: seed}})
	}
	add(thermflow.FirstFree, 1)
	for seed := int64(1); seed <= 5; seed++ {
		add(thermflow.Random, seed)
	}
	add(thermflow.Chessboard, 1)
	add(thermflow.Coldest, 1)
	return jobs
}

// BenchmarkCompileBatch measures the batch engine on the fig1 policy
// sweep at several worker-pool sizes. Each iteration uses a fresh
// engine so the content cache cannot serve results across iterations —
// the numbers measure compilation throughput, not cache hits.
func BenchmarkCompileBatch(b *testing.B) {
	jobs := fig1SweepJobs()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := thermflow.NewBatch(workers).Compile(context.Background(), jobs)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkCompileBatchCached measures the same sweep served from a
// warm content cache — the repeated-configuration case.
func BenchmarkCompileBatchCached(b *testing.B) {
	jobs := fig1SweepJobs()
	eng := thermflow.NewBatch(8)
	eng.Compile(context.Background(), jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.Compile(context.Background(), jobs)
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkBatchOverlap measures the worker pool's fan-out on jobs
// with a fixed 5 ms wait each (standing in for jobs with an off-CPU
// component). At w workers the wall clock must approach
// (jobs/w)·wait; the workers=8 over workers=1 ratio is the pool's
// demonstrated concurrency even on a single-CPU host, where the
// CPU-bound compile sweep above cannot parallelize.
func BenchmarkBatchOverlap(b *testing.B) {
	const jobs = 8
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bjobs := make([]batch.Job, jobs)
				for j := range bjobs {
					bjobs[j] = batch.Job{Fn: func(context.Context) (any, error) {
						time.Sleep(5 * time.Millisecond)
						return nil, nil
					}}
				}
				for _, r := range batch.NewRunner(workers).Run(context.Background(), bjobs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// benchSolver measures one solver on a cold-start analysis of a
// mid-sized generated program (the regime where sweep counts are
// large).
func benchSolver(b *testing.B, solver thermflow.Solver) {
	p := thermflow.Generate(thermflow.GenerateOptions{
		Seed: 2, Pressure: 10, Irregularity: 0.2, Segments: 6, LoopDepth: 2,
	})
	opts := thermflow.Options{Solver: solver, NoWarmStart: true, MaxIter: 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Compile(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !c.Thermal.Converged {
			b.Fatal("analysis did not converge")
		}
	}
}

// BenchmarkSolverDense measures the dense reference solver.
func BenchmarkSolverDense(b *testing.B) { benchSolver(b, thermflow.SolverDense) }

// BenchmarkSolverSparse measures the sparse worklist solver on the
// same input.
func BenchmarkSolverSparse(b *testing.B) { benchSolver(b, thermflow.SolverSparse) }

// --- region solve plane ---

// benchMega is the partitioning target: a wide mega-module (8 arms of
// depth-2 loop nests off a dispatch chain) whose cold-start fixpoint
// runs long enough that cutting it into regions pays.
func benchMega() *thermflow.Program {
	return thermflow.GenerateMega(thermflow.MegaOptions{
		Seed: 7, Arms: 8, Depth: 2, OpsPerBlock: 8, Pressure: 16, TripCount: 16,
	})
}

// benchMegaSolver measures one solver configuration on the cold-start
// mega-module analysis and reports its rounds to fixpoint.
func benchMegaSolver(b *testing.B, opts thermflow.Options) {
	p := benchMega()
	opts.NoWarmStart = true
	opts.MaxIter = 4096
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		c, err := p.Compile(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !c.Thermal.Converged {
			b.Fatal("analysis did not converge")
		}
		rounds = c.Thermal.Iterations
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkMegaSolverDense is the monolithic Fig. 2 reference on the
// mega-module.
func BenchmarkMegaSolverDense(b *testing.B) {
	benchMegaSolver(b, thermflow.Options{Solver: thermflow.SolverDense})
}

// BenchmarkMegaSolverSparse is the monolithic worklist solver on the
// mega-module — the baseline the region plane is scored against.
func BenchmarkMegaSolverSparse(b *testing.B) {
	benchMegaSolver(b, thermflow.Options{Solver: thermflow.SolverSparse})
}

// BenchmarkMegaSolverRegion is the partitioned exact-mode solve
// (bit-identical to dense, regions swept in parallel DAG waves).
func BenchmarkMegaSolverRegion(b *testing.B) {
	benchMegaSolver(b, thermflow.Options{Solver: thermflow.SolverRegion, Regions: 8})
}

// BenchmarkMegaSolverRegionSlack is the partitioned Jacobi solve with
// a σ = 0.02 K boundary budget (fewer synchronization rounds).
func BenchmarkMegaSolverRegionSlack(b *testing.B) {
	benchMegaSolver(b, thermflow.Options{
		Solver: thermflow.SolverRegion, Regions: 8, RegionDelta: 0.02,
	})
}

// --- core pipeline micro-benchmarks ---

// kernelSweepJobs is thermbench's kernel-sweep workload: every built-in
// kernel's canonical text parsed back (what a served job compiles),
// under every policy and both sweep layouts, default options otherwise
// — 132 compiles.
func kernelSweepJobs(b *testing.B) []thermflow.CompileJob {
	var jobs []thermflow.CompileJob
	for _, name := range thermflow.Kernels() {
		k, err := thermflow.Kernel(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := thermflow.Parse(k.Fn.String())
		if err != nil {
			b.Fatal(err)
		}
		for _, pol := range thermflow.Policies {
			for _, l := range []floorplan.Layout{floorplan.RowMajor, floorplan.Checker} {
				jobs = append(jobs, thermflow.CompileJob{
					Program: p, Opts: thermflow.Options{Policy: pol, Layout: l, Seed: 1},
				})
			}
		}
	}
	return jobs
}

// BenchmarkCompileKernelSweep compiles the kernel-sweep specs in turn,
// one compile per op, so B/op and allocs/op are the garbage of one
// full compile (allocation and analysis). Run a multiple of 132 ops
// (-benchtime 1320x) to weight every spec equally.
func BenchmarkCompileKernelSweep(b *testing.B) {
	jobs := kernelSweepJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, err := j.Program.Compile(j.Opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures allocation alone (no analysis) on the FIR
// kernel.
func BenchmarkCompile(b *testing.B) {
	prog, err := thermflow.Kernel("fir")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Compile(thermflow.Options{SkipAnalysis: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the thermal data-flow analysis
// (warm-started) on the compiled FIR kernel.
func BenchmarkAnalyze(b *testing.B) {
	prog, err := thermflow.Kernel("fir")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := prog.Compile(thermflow.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !c.Thermal.Converged {
			b.Fatal("analysis did not converge")
		}
	}
}

// BenchmarkAnalyzeColdStart measures the raw Fig. 2 iteration without
// the steady-state warm start (the ablated configuration).
func BenchmarkAnalyzeColdStart(b *testing.B) {
	prog, err := thermflow.Kernel("fir")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Compile(thermflow.Options{NoWarmStart: true, MaxIter: 512}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures IR execution with trace recording.
func BenchmarkInterpreter(b *testing.B) {
	prog, err := thermflow.Kernel("fir")
	if err != nil {
		b.Fatal(err)
	}
	c, err := prog.Compile(thermflow.Options{SkipAnalysis: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures the trace-driven thermal ground truth — the
// feedback cost the compile-time analysis avoids.
func BenchmarkReplay(b *testing.B) {
	prog, err := thermflow.Kernel("fir")
	if err != nil {
		b.Fatal(err)
	}
	c, err := prog.Compile(thermflow.Options{SkipAnalysis: true})
	if err != nil {
		b.Fatal(err)
	}
	run, err := c.Run(48)
	if err != nil {
		b.Fatal(err)
	}
	tech := power.Default65nm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(run.Trace, sim.ReplayConfig{
			Tech: tech, FP: c.Floorplan(), Sustained: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalStep measures one transient step of the RC grid (the
// inner kernel of both the analysis and the replay) across grid sizes —
// the compute-cost side of the paper's §3 granularity trade-off.
func BenchmarkThermalStep(b *testing.B) {
	for _, dim := range []int{4, 8, 16, 32} {
		dim := dim
		b.Run(fmt.Sprintf("%dx%d", dim, dim), func(b *testing.B) {
			grid, err := thermal.NewGrid(dim, dim, power.Default65nm())
			if err != nil {
				b.Fatal(err)
			}
			s := grid.NewState()
			pow := make([]float64, grid.NumCells())
			pow[grid.NumCells()/2] = 3e-3
			dt := grid.MaxStableStep()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grid.Step(s, pow, dt)
			}
		})
	}
}

// BenchmarkSteadyState measures the Gauss-Seidel steady-state solve
// used by the warm start.
func BenchmarkSteadyState(b *testing.B) {
	grid, err := thermal.NewGrid(8, 8, power.Default65nm())
	if err != nil {
		b.Fatal(err)
	}
	pow := make([]float64, grid.NumCells())
	pow[27] = 3e-3
	pow[4] = 1e-3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.SteadyState(pow)
	}
}
