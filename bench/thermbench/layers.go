package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"thermflow"
	"thermflow/internal/analysis"
	"thermflow/internal/cachestore"
	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/interference"
	"thermflow/internal/ir"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/tdfa"
	"thermflow/internal/thermal"
)

// The per-layer pass times each module's public functions from
// outside, on every distinct input once, in the order Compile calls
// them. Every call is also recorded as a span. Layers that run inside
// one call (the colouring round inside Allocate, the analysis set-up
// inside Analyze) are timed by repeating their calls on the same
// inputs, so those figures are estimates of the share, named _est where
// they are derived by subtraction.

// samples collects per-call values by metric name. Safe for concurrent
// use.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string][]float64)
	}
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

// Bounds of the per-layer pass: it times inputs in order until the
// window closes, but at least minTraceInputs of them; the disk tier is
// timed on the first diskSampleInputs only, to bound the bytes written.
const (
	minTraceInputs   = 16
	diskSampleInputs = 64
)

// layerPass runs the per-layer pass over inputs and returns the
// per-layer metrics: each the median over calls, except the _max,
// _ratio and count-per-compile figures named as such.
func layerPass(ctx context.Context, env runEnv, workload string, inputs []input, or *oracle, rec *spanRecorder) (map[string]float64, int, int, error) {
	forEachInput(ctx, inputs[:min(warmupInputs, len(inputs))], env.workers, func(_ int, in *input) {
		_, _ = in.Prog.CompileContext(ctx, in.Opts)
	})

	cacheDir := filepath.Join(env.out, fmt.Sprintf("cache-%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(cacheDir); err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(cacheDir)
	mem, err := cachestore.Open(cachestore.Config{})
	if err != nil {
		return nil, 0, 0, err
	}
	// A one-byte memory cap admits nothing to the disk store's memory
	// tier, so its Puts time the disk write and hold no results.
	disk, err := cachestore.Open(diskOnly(cacheDir))
	if err != nil {
		return nil, 0, 0, err
	}

	s := &samples{}
	allocs := make([]*regalloc.Allocation, len(inputs))
	var mu sync.Mutex
	attempted, failed := 0, 0
	var firstErr error
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < env.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(inputs) || (i >= minTraceInputs && !time.Now().Before(deadline)) {
					return
				}
				store := disk
				if i >= diskSampleInputs {
					store = nil
				}
				alloc, err := traceInput(ctx, &inputs[i], i, or, rec, s, mem, store)
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
				allocs[i] = alloc
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if attempted == failed && firstErr != nil {
		return nil, attempted, failed, firstErr
	}

	// Disk reads from a store reopened over the written directory, so
	// every Get misses memory and decodes from disk.
	cold, err := cachestore.Open(diskOnly(cacheDir))
	if err != nil {
		return nil, attempted, failed, err
	}
	for i := range inputs[:min(diskSampleInputs, len(inputs))] {
		if allocs[i] == nil {
			continue
		}
		t0 := time.Now()
		_, ok := cold.Get(inputs[i].ID)
		d := time.Since(t0)
		if !ok {
			return nil, attempted, failed, fmt.Errorf("%s: disk tier lost entry %s", inputs[i].Name, inputs[i].ID)
		}
		rec.record("cachestore.disk_get", traceIDOf(&inputs[i]), 0, t0, d)
		s.add("cachestore.disk_get_ms", msOf(d))
	}

	if workload == "mega-cold" {
		compareSolvers(ctx, inputs, allocs, s, rec, time.Now().Add(time.Duration(env.seconds/2*float64(time.Second))))
	}
	return layerMetrics(s, or.checkResiduals(inputs)), attempted, failed, nil
}

// traceIDOf names an input's spans: the first half of its spec ID.
func traceIDOf(in *input) string { return in.ID[:32] }

// traceInput times every layer on one input and returns the
// allocation it made (for the solver comparison).
func traceInput(ctx context.Context, in *input, i int, or *oracle, rec *spanRecorder, s *samples, mem, disk *cachestore.Store) (*regalloc.Allocation, error) {
	tid := traceIDOf(in)
	root := rec.reserve()
	rootStart := time.Now()
	timed := func(name string, parent int, f func()) float64 {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		rec.record(name, tid, parent, t0, d)
		ms := msOf(d)
		s.add(name+"_ms", ms)
		return ms
	}

	// The tracing overhead: the same compile with and without a span
	// around it, in alternating order so neither side always runs warm.
	untraced := func() error {
		t0 := time.Now()
		_, err := in.Prog.CompileContext(ctx, in.Opts)
		s.add("compile.untraced_ms", msOf(time.Since(t0)))
		return err
	}
	if i%2 == 0 {
		if err := untraced(); err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
	}
	var c *thermflow.Compiled
	var err error
	compileMS := timed("compile", root, func() { c, err = in.Prog.CompileContext(ctx, in.Opts) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Name, err)
	}
	or.check(in, resultOf(c), c.Tech().TAmbient)
	if i%2 == 1 {
		if err := untraced(); err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
	}

	timed("ir.parse", root, func() { _, err = thermflow.Parse(in.Spec.Source) })
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", in.Name, err)
	}
	timed("jobspec.id", root, func() { _, err = in.Spec.ID() })
	if err != nil {
		return nil, fmt.Errorf("%s: spec id: %w", in.Name, err)
	}

	fp, tech := c.Floorplan(), c.Tech()
	trip := in.Opts.DefaultTrip
	var alloc *regalloc.Allocation
	allocMS := timed("regalloc.allocate", root, func() {
		alloc, err = regalloc.Allocate(in.Prog.Fn, regalloc.Config{
			NumRegs: fp.NumRegs, Policy: in.Opts.Policy, Seed: in.Opts.Seed,
			HeatSeed: in.Opts.HeatSeed, FP: fp, DefaultTrip: trip,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: allocate: %w", in.Name, err)
	}
	s.add("regalloc.rounds", float64(alloc.Rounds))
	s.add("regalloc.spilled", float64(len(alloc.Spilled)))
	s.add("regalloc.instr_growth", float64(alloc.Fn.NumInstrs())/float64(in.Prog.Fn.NumInstrs()))
	s.add("cfg.freq_calls", float64(alloc.Rounds+1))

	// One colouring round's analyses, on the source function.
	round := rec.reserve()
	roundStart := time.Now()
	src := in.Prog.Fn
	var g *cfg.Graph
	var lv *analysis.Liveness
	var li *cfg.LoopInfo
	timed("cfg.build", round, func() { g = cfg.Build(src) })
	timed("analysis.liveness", round, func() { lv = analysis.ComputeLiveness(g) })
	timed("interference.build", round, func() { interference.Build(g, lv) })
	timed("cfg.loops", round, func() { li = g.Loops(trip) })
	freqSrcMS := timed("cfg.freq", round, func() { cfg.EstimateFreq(g, li) })
	timed("analysis.defuse", round, func() { analysis.ComputeDefUse(src) })
	rec.recordAs(round, "regalloc.round", tid, root, roundStart, time.Since(roundStart))

	tcfg := tdfa.Config{
		Tech: tech, FP: fp, Alloc: alloc, Ctx: ctx,
		Solver: in.Opts.Solver, Regions: in.Opts.Regions, RegionSlack: in.Opts.RegionDelta,
		Delta: in.Opts.Delta, MaxIter: in.Opts.MaxIter, Kappa: in.Opts.Kappa,
		JoinOp: in.Opts.JoinOp, WithLeakage: in.Opts.WithLeakage,
		NoWarmStart: in.Opts.NoWarmStart, DefaultTrip: trip,
	}
	var res *tdfa.Result
	analyzeMS := timed("tdfa.analyze", root, func() { res, err = tdfa.Analyze(alloc.Fn, tcfg) })
	if err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", in.Name, err)
	}
	s.add("tdfa.iterations", float64(res.Iterations))
	s.add("tdfa.block_sweeps", float64(res.BlockSweeps))
	converged := 0.0
	if res.Converged {
		converged = 1
	}
	s.add("tdfa.converged_ratio", converged)

	// The analysis set-up Analyze performs before its fixpoint, repeated
	// call by call on the allocated function.
	setup := rec.reserve()
	setupStart := time.Now()
	afn := alloc.Fn
	var g2 *cfg.Graph
	var li2 *cfg.LoopInfo
	var fr2 *cfg.Freq
	var grid *thermal.Grid
	setupMS := timed("ir.verify", setup, func() { err = ir.Verify(afn) })
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", in.Name, err)
	}
	setupMS += timed("cfg.build", setup, func() { g2 = cfg.Build(afn) })
	setupMS += timed("cfg.loops", setup, func() { li2 = g2.Loops(trip) })
	freqAllocMS := timed("cfg.freq", setup, func() { fr2 = cfg.EstimateFreq(g2, li2) })
	setupMS += freqAllocMS
	setupMS += timed("thermal.new_grid", setup, func() {
		grid, err = thermal.NewGrid(fp.Width, fp.Height, tech.WithCellEdge(fp.CellEdge))
	})
	if err != nil {
		return nil, fmt.Errorf("%s: grid: %w", in.Name, err)
	}
	pow := avgPower(afn, g2, fr2, alloc, fp, tech, grid.NumCells())
	steadyMS := timed("thermal.steady_state", setup, func() { grid.SteadyState(pow) })
	if !in.Opts.NoWarmStart {
		setupMS += steadyMS
	}
	rec.recordAs(setup, "tdfa.setup_est", tid, root, setupStart, time.Since(setupStart))
	s.add("tdfa.setup_est_ms", setupMS)
	s.add("tdfa.fixpoint_est_ms", analyzeMS-setupMS)
	s.add("compile.coverage", (allocMS+analyzeMS)/compileMS)
	s.add("cfg.freq_share", (freqSrcMS*float64(alloc.Rounds)+freqAllocMS)/compileMS)

	var enc []byte
	timed("codec.encode", root, func() { enc, err = thermflow.EncodeCompiled(c) })
	if err != nil {
		return nil, fmt.Errorf("%s: encode: %w", in.Name, err)
	}
	s.add("codec.bytes", float64(len(enc)))
	timed("codec.decode", root, func() { _, err = thermflow.DecodeCompiled(enc) })
	if err != nil {
		return nil, fmt.Errorf("%s: decode: %w", in.Name, err)
	}
	timed("cachestore.mem_put", root, func() { mem.Put(in.ID, c) })
	var hit bool
	timed("cachestore.mem_get", root, func() { _, hit = mem.Get(in.ID) })
	mem.Delete(in.ID)
	if !hit {
		return nil, fmt.Errorf("%s: memory tier lost its entry", in.Name)
	}
	if disk != nil {
		timed("cachestore.disk_put", root, func() { disk.Put(in.ID, c) })
	}

	rec.recordAs(root, "input", tid, 0, rootStart, time.Since(rootStart))
	return alloc, nil
}

// avgPower is the frequency-averaged per-cell power map the analysis
// warm-starts from: access energy weighted by block frequency, over the
// weighted cycle count of one invocation.
func avgPower(fn *ir.Function, g *cfg.Graph, fr *cfg.Freq, alloc *regalloc.Allocation, fp *floorplan.Floorplan, tech power.Tech, cells int) []float64 {
	energy := make([]float64, cells)
	deposit := func(e float64, v *ir.Value) {
		if r := alloc.RegOf[v.ID]; r >= 0 {
			energy[fp.CellOf(r)] += e
		}
	}
	for _, b := range fn.Blocks {
		if !g.Reachable(b) {
			continue
		}
		f := fr.Block[b.Index]
		for _, in := range b.Instrs {
			for _, u := range in.Uses {
				deposit(f*tech.AccessEnergy(false), u)
			}
			if in.Def != nil {
				deposit(f*tech.AccessEnergy(true), in.Def)
			}
		}
	}
	total := fr.TotalWeightedCycles(fn) * tech.CycleTime
	if total <= 0 {
		total = tech.CycleTime
	}
	for i := range energy {
		energy[i] /= total
	}
	return energy
}

// regionCount and regionSlack are the region-solver settings the
// solver comparison measures (exact and σ-slack modes).
const (
	regionCount = 8
	regionSlack = 0.02
)

// minSolverInputs is how many inputs the solver comparison covers even
// past its deadline.
const minSolverInputs = 8

// compareSolvers times every fixpoint solver on the same allocated
// inputs, one solve at a time so the parallel region solver has the
// machine to itself, rotating the order across inputs, until deadline.
func compareSolvers(ctx context.Context, inputs []input, allocs []*regalloc.Allocation, s *samples, rec *spanRecorder, deadline time.Time) {
	type variant struct {
		name    string
		solver  tdfa.Solver
		regions int
		slack   float64
	}
	variants := []variant{
		{"dense", tdfa.SolverDense, 0, 0},
		{"sparse", tdfa.SolverSparse, 0, 0},
		{"region", tdfa.SolverRegion, regionCount, 0},
		{"region_slack", tdfa.SolverRegion, regionCount, regionSlack},
	}
	done := 0
	for i := range inputs {
		alloc := allocs[i]
		if alloc == nil {
			continue
		}
		if ctx.Err() != nil || (done >= minSolverInputs && !time.Now().Before(deadline)) {
			return
		}
		done++
		in := &inputs[i]
		for k := range variants {
			v := variants[(i+k)%len(variants)]
			c := tdfa.Config{
				FP: alloc.FP, Alloc: alloc, Ctx: ctx, Solver: v.solver,
				Regions: v.regions, RegionSlack: v.slack,
				Delta: in.Opts.Delta, MaxIter: in.Opts.MaxIter, Kappa: in.Opts.Kappa,
				NoWarmStart: in.Opts.NoWarmStart, DefaultTrip: in.Opts.DefaultTrip,
			}
			t0 := time.Now()
			res, err := tdfa.Analyze(alloc.Fn, c)
			d := time.Since(t0)
			if err != nil {
				continue
			}
			rec.record("tdfa.solver."+v.name, traceIDOf(in), 0, t0, d)
			s.add("tdfa.solver."+v.name+"_ms", msOf(d))
			if v.name == "region_slack" {
				s.add("tdfa.solver.region_slack_iterations", float64(res.Iterations))
			}
		}
	}
}

// layerMetrics reduces the collected samples: medians for timings and
// per-compile counts, the converged share, and the tracing overhead as
// the ratio of traced to untraced compile medians. worstResidual is the
// largest frequency residual over the pass's programs.
func layerMetrics(s *samples, worstResidual float64) map[string]float64 {
	m := make(map[string]float64, len(s.m)+2)
	for name, vs := range s.m {
		switch name {
		case "compile_ms", "compile.untraced_ms":
			continue
		case "tdfa.converged_ratio":
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			m[name] = sum / float64(len(vs))
		default:
			m[name] = median(vs)
		}
	}
	m["cfg.freq_residual_max"] = worstResidual
	m["trace.overhead_ratio"] = median(s.m["compile_ms"]) / median(s.m["compile.untraced_ms"])
	return m
}

func diskOnly(dir string) cachestore.Config {
	return cachestore.Config{Dir: dir, Codec: compiledCodec{}, MaxMemBytes: 1}
}

// compiledCodec stores compile results in the cache store's disk tier
// through the library's durable encoding.
type compiledCodec struct{}

func (compiledCodec) Encode(v any) ([]byte, error) {
	c, ok := v.(*thermflow.Compiled)
	if !ok {
		return nil, cachestore.ErrUnencodable
	}
	return thermflow.EncodeCompiled(c)
}

func (compiledCodec) Decode(data []byte) (any, error) { return thermflow.DecodeCompiled(data) }
