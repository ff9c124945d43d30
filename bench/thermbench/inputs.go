package main

import (
	"fmt"
	"math"
	"math/rand"

	"thermflow"
	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/ir"
)

// input is one compile the benchmark runs: a program, its options and
// the job-spec identity both the library and the serving plane file it
// under.
type input struct {
	Name string
	Prog *thermflow.Program
	Opts thermflow.Options
	Spec thermflow.JobSpec
	// ID is the spec's content hash: the key of the reference file and
	// the job ID a server answers under.
	ID string
	// Referenced marks inputs the reference files cover; the serve
	// workload's fresh programs are checked by invariants and against a
	// local compile instead.
	Referenced bool
}

// maxResidual is the admission rule for generated programs: a program
// whose reference frequency estimate (seedFreq) leaves a flow-equation
// residual above it stopped at the Gauss-Seidel sweep cap rather than
// converging, and is replaced by the next generator seed. Keeping such
// inputs out means an exact frequency solver is not scored as wrong
// where the iterative one was inaccurate. Every admitted program's
// estimate by the code under test must meet the same bound
// (oracle.checkResiduals).
const maxResidual = 1e-12

// maxAttempts bounds the generator seeds tried for one input slot.
const maxAttempts = 64

// programInputs makes one input per option set of a program. What the
// benchmark compiles is the program's canonical text parsed back, the
// form a served job of the same spec compiles: value numbering can
// change in the round trip, and with it the allocation. The variants
// share the parsed program, which compiles never modify.
func programInputs(name string, p *thermflow.Program, variants []thermflow.Options) ([]input, error) {
	src, canon, err := canonical(name, p)
	if err != nil {
		return nil, err
	}
	return variantInputs(name, src, canon, variants)
}

// canonical returns a program's text and that text parsed back.
func canonical(name string, p *thermflow.Program) (string, *thermflow.Program, error) {
	src := p.Fn.String()
	canon, err := thermflow.Parse(src)
	if err != nil {
		return "", nil, fmt.Errorf("%s: canonical source: %w", name, err)
	}
	return src, canon, nil
}

// variantInputs makes one input per option set of a program given as
// its text src and that text parsed back.
func variantInputs(name, src string, canon *thermflow.Program, variants []thermflow.Options) ([]input, error) {
	out := make([]input, 0, len(variants))
	for _, o := range variants {
		spec := thermflow.JobSpec{Source: src, Opts: o}
		id, err := spec.ID()
		if err != nil {
			return nil, err
		}
		out = append(out, input{
			Name: fmt.Sprintf("%s/%s/%s", name, o.Policy, o.Layout), Prog: canon, Opts: o,
			Spec: spec, ID: id, Referenced: true,
		})
	}
	return out, nil
}

// admit draws generated programs for one input slot until one meets the
// residual rule, and returns its variants.
func admit(name string, variants []thermflow.Options, gen func(attempt int) *thermflow.Program) ([]input, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		src, canon, err := canonical(name, gen(attempt))
		if err != nil {
			return nil, err
		}
		if admissionResidual(canon.Fn) <= maxResidual {
			return variantInputs(name, src, canon, variants)
		}
	}
	return nil, fmt.Errorf("%s: no admissible program in %d generator seeds", name, maxAttempts)
}

// flowResidual checks the static frequency estimate of fn by the code
// under test against the flow equations it is meant to solve, using
// only the public Freq.Block and Freq.Prob tables. No input sets a
// default trip.
func flowResidual(fn *ir.Function) float64 {
	g := cfg.Build(fn)
	if len(g.RPO) == 0 {
		return 0
	}
	f := cfg.EstimateFreq(g, g.Loops(0))
	return residual(g, f.Block, f.Prob)
}

// admissionResidual is flowResidual of the reference estimate seedFreq,
// which the code under test cannot change.
func admissionResidual(fn *ir.Function) float64 {
	g := cfg.Build(fn)
	if len(g.RPO) == 0 {
		return 0
	}
	block, prob := seedFreq(g, g.Loops(0))
	return residual(g, block, prob)
}

// residual returns the largest violation of the flow equations
// freq(b) = [b is entry] + Σ freq(p)·prob(p→b) over the reachable
// blocks b, relative to freq(b).
func residual(g *cfg.Graph, block []float64, prob map[cfg.EdgeKey]float64) float64 {
	entry := g.RPO[0]
	worst := 0.0
	for _, b := range g.RPO {
		want := 0.0
		if b == entry {
			want = 1
		}
		for _, p := range g.Preds[b.Index] {
			if g.Reachable(p) {
				want += block[p.Index] * prob[cfg.Edge(p, b)]
			}
		}
		got := block[b.Index]
		r := math.Abs(want - got)
		if got != 0 {
			r /= math.Abs(got)
		}
		if r > worst || math.IsNaN(r) {
			worst = r
		}
	}
	return worst
}

// seedFreq is the static frequency estimate exactly as cfg.EstimateFreq
// computed it when the reference files were written: loop-stay branches
// get trip/(trip+1), other branches split evenly, and Gauss-Seidel
// sweeps in reverse postorder solve the flow equations, stopping when no
// block moves by 1e-12 or after 50000 sweeps. The admission rule runs
// on this copy, so a change to the estimator under test cannot change
// which programs are admitted and so which inputs both commits compile.
func seedFreq(g *cfg.Graph, li *cfg.LoopInfo) ([]float64, map[cfg.EdgeKey]float64) {
	const sweeps, epsilon = 50000, 1e-12
	block := make([]float64, g.NumBlocks())
	prob := make(map[cfg.EdgeKey]float64)
	for _, b := range g.RPO {
		succs := b.Succs()
		for _, s := range succs {
			prob[cfg.Edge(b, s)] = 1 / float64(len(succs))
		}
		if l := li.Innermost(b); len(succs) == 2 && l != nil && l.Blocks[succs[0]] != l.Blocks[succs[1]] {
			stay := float64(l.Trip) / float64(l.Trip+1)
			in, out := succs[0], succs[1]
			if !l.Blocks[in] {
				in, out = out, in
			}
			prob[cfg.Edge(b, in)], prob[cfg.Edge(b, out)] = stay, 1-stay
		}
	}
	entry := g.RPO[0]
	for iter := 0; iter < sweeps; iter++ {
		maxDelta := 0.0
		for _, b := range g.RPO {
			want := 0.0
			if b == entry {
				want = 1
			}
			for _, p := range g.Preds[b.Index] {
				if g.Reachable(p) {
					want += block[p.Index] * prob[cfg.Edge(p, b)]
				}
			}
			maxDelta = max(maxDelta, math.Abs(want-block[b.Index]))
			block[b.Index] = want
		}
		if maxDelta < epsilon {
			break
		}
	}
	return block, prob
}

// genSeed derives the generator seed of one input slot from the run
// seed, so every workload and slot draws an independent, reproducible
// stream (splitmix64 finalizer over the packed coordinates).
func genSeed(seed int64, stream, slot, attempt int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(slot)<<12 + uint64(attempt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Generator streams: one per generated input family, plus the ones the
// serve workload draws its arrival mix from.
const (
	streamSpill = iota + 1
	streamMega
	streamFresh
	streamOrder
)

// generated builds n admitted program slots and their variants. gen
// builds slot i's program from a generator seed; the run seed only picks
// the generator seeds, so every run seed covers the same mix of shapes.
func generated(seed int64, stream, n int, name string, variants []thermflow.Options, gen func(slot int, genSeed int64) *thermflow.Program) ([]input, error) {
	out := make([]input, 0, n*len(variants))
	for i := 0; i < n; i++ {
		ins, err := admit(fmt.Sprintf("%s/%d", name, i), variants, func(attempt int) *thermflow.Program {
			return gen(i, genSeed(seed, stream, i, attempt))
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ins...)
	}
	return out, nil
}

var sweepLayouts = []floorplan.Layout{floorplan.RowMajor, floorplan.Checker}

// kernelSweepInputs is every built-in kernel under every policy and two
// layouts: the paper's Fig. 1 usage. The seed drives the Random policy.
func kernelSweepInputs(seed int64) ([]input, error) {
	var variants []thermflow.Options
	for _, pol := range thermflow.Policies {
		for _, l := range sweepLayouts {
			variants = append(variants, thermflow.Options{Policy: pol, Layout: l, Seed: seed})
		}
	}
	var out []input
	for _, k := range thermflow.Kernels() {
		p, err := thermflow.Kernel(k)
		if err != nil {
			return nil, err
		}
		ins, err := programInputs(k, p, variants)
		if err != nil {
			return nil, err
		}
		out = append(out, ins...)
	}
	return out, nil
}

// spillInputs generates n register-pressure programs compiled for a
// 16-register 4×4 file. The shape parameters cycle with coprime
// periods, so the set spans pressure 14–20, 4–6 segments, trips 4–8
// and irregularity 0–0.3 evenly, and the cost distribution is smooth:
// its median and tail then move little from seed to seed.
func spillInputs(seed int64, n int) ([]input, error) {
	opts := []thermflow.Options{{NumRegs: 16, GridW: 4, GridH: 4}}
	return generated(seed, streamSpill, n, "spill", opts, func(i int, s int64) *thermflow.Program {
		return thermflow.Generate(thermflow.GenerateOptions{
			Seed: s, Pressure: 14 + i%7, Segments: 4 + i%3, LoopDepth: 2,
			Irregularity: 0.1 * float64(i%4), TripCount: 4 + i%5,
		})
	})
}

// megaOpts compiles cold (no steady-state warm start) with a sweep cap
// high enough that every admitted module converges.
var megaOpts = thermflow.Options{NoWarmStart: true, MaxIter: 4096}

// megaInputs generates n mega-modules (4–8 arms of depth-2 nests, trips
// 6–10), each compiled under every policy: big CFGs where frequency
// estimation and a 20–60 sweep fixpoint are both heavy. The policies
// place the same program's heat differently, so they multiply the
// distinct fixpoints measured without generating more modules.
func megaInputs(seed int64, n int) ([]input, error) {
	var variants []thermflow.Options
	for _, pol := range thermflow.Policies {
		o := megaOpts
		o.Policy = pol
		variants = append(variants, o)
	}
	return generated(seed, streamMega, n, "mega", variants, func(i int, s int64) *thermflow.Program {
		return thermflow.GenerateMega(thermflow.MegaOptions{Seed: s, Arms: 4 + i%5, Depth: 2, TripCount: 6 + 2*(i%3)})
	})
}

// hotSetSize is the number of distinct specs the serve workload
// repeats.
const hotSetSize = 32

// hotSetInputs draws the serve workload's repeated specs from the
// kernel sweep.
func hotSetInputs(seed int64) ([]input, error) {
	all, err := kernelSweepInputs(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, hotSetSize)
	for i, j := range rng.Perm(len(all))[:hotSetSize] {
		out[i] = all[j]
	}
	return out, nil
}

// freshInputs generates n distinct programs for the serve workload's
// cold arrivals, compiled with default options; their shapes cycle like
// spillInputs' at lower pressure, so none needs spilling.
func freshInputs(seed int64, n int) ([]input, error) {
	ins, err := generated(seed, streamFresh, n, "fresh", []thermflow.Options{{}}, func(i int, s int64) *thermflow.Program {
		return thermflow.Generate(thermflow.GenerateOptions{
			Seed: s, Pressure: 8 + i%7, Segments: 3 + i%3, LoopDepth: 2,
			Irregularity: 0.1 * float64(i%4), TripCount: 4 + i%5,
		})
	})
	for i := range ins {
		ins[i].Referenced = false
	}
	return ins, err
}
