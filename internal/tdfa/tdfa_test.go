package tdfa

import (
	"math"
	"testing"

	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/ir"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
)

const hotLoopSrc = `
func hotloop(n) {
entry:
  i = const 0
  one = const 1
  acc = const 0
  br head
head: !trip 1000
  c = cmplt i, n
  cbr c, body, exit
body:
  a2 = add acc, i
  acc = mov a2
  i2 = add i, one
  i = mov i2
  br head
exit:
  ret acc
}`

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func allocate(t *testing.T, f *ir.Function, pol regalloc.Policy) *regalloc.Allocation {
	t.Helper()
	a, err := regalloc.Allocate(f, regalloc.Config{NumRegs: 64, Policy: pol})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	return a
}

func TestAnalyzePostAssignConverges(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Converged {
		t.Fatalf("analysis did not converge: iters=%d finalΔ=%g", res.Iterations, res.FinalDelta)
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
	tech := power.Default65nm()
	if res.PeakTemp <= tech.TAmbient {
		t.Errorf("peak %g K not above ambient %g K", res.PeakTemp, tech.TAmbient)
	}
	if res.PeakTemp > tech.TAmbient+200 {
		t.Errorf("peak %g K implausibly high", res.PeakTemp)
	}
	// The loop runs on the first few registers under first-free: the
	// hottest register must be a low-numbered one.
	hot := res.HottestRegs(3)
	for _, r := range hot {
		if r > 10 {
			t.Errorf("hottest registers %v include high register %d under first-free", hot, r)
		}
	}
	// Every instruction has a state of grid size.
	if len(res.InstrState) != a.Fn.NumInstrs() {
		t.Errorf("InstrState count = %d, want %d", len(res.InstrState), a.Fn.NumInstrs())
	}
	for id, st := range res.InstrState {
		if len(st) != 64 {
			t.Fatalf("instr %d state size %d", id, len(st))
		}
	}
	// Delta history decreases overall.
	hist := res.DeltaHistory
	if len(hist) == 0 || hist[len(hist)-1] > hist[0] {
		t.Errorf("delta history not improving: %v", hist)
	}
}

func TestAnalyzeLoopHotterThanExit(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	// The state after a loop-body instruction must be hotter (at its
	// own busiest cell) than the entry in-state.
	body := a.Fn.BlockNamed("body")
	entryIn := res.BlockIn[a.Fn.Entry.Index]
	bodySt := res.InstrState[body.Instrs[0].ID]
	if bodySt.Max() <= entryIn.Min() {
		t.Error("loop body not hotter than entry baseline")
	}
}

func TestAnalyzeEarlyModePriors(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	for _, prior := range []Prior{PriorFirstFree, PriorUniform, PriorChessboard} {
		t.Run(prior.String(), func(t *testing.T) {
			res, err := Analyze(f, Config{PlacementPrior: prior})
			if err != nil {
				t.Fatalf("Analyze early: %v", err)
			}
			if res.PeakTemp <= power.Default65nm().TAmbient {
				t.Errorf("early mode predicts no heating (peak %g)", res.PeakTemp)
			}
			if len(res.Critical) == 0 {
				t.Error("no critical variables ranked")
			}
		})
	}
}

func TestEarlyFirstFreePredictsLowRegisterHotspot(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	res, err := Analyze(f, Config{PlacementPrior: PriorFirstFree})
	if err != nil {
		t.Fatal(err)
	}
	hot := res.HottestRegs(1)[0]
	if hot > 8 {
		t.Errorf("first-free prior predicts hotspot at register %d, want low-numbered", hot)
	}
	// Uniform prior must spread heat more evenly: its peak is lower.
	resU, err := Analyze(f, Config{PlacementPrior: PriorUniform})
	if err != nil {
		t.Fatal(err)
	}
	if resU.PeakTemp >= res.PeakTemp {
		t.Errorf("uniform prior peak %g not below first-free prior peak %g",
			resU.PeakTemp, res.PeakTemp)
	}
}

func TestCriticalRankingIdentifiesLoopVariables(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopCritical(4)
	if len(top) == 0 {
		t.Fatal("no critical variables")
	}
	// The top variables must be loop-carried ones (i, acc, one, n, or
	// loop temps), not entry-only constants.
	loopVars := map[string]bool{"i": true, "acc": true, "one": true, "n": true,
		"c": true, "a2": true, "i2": true}
	if !loopVars[top[0].Value.Name] {
		t.Errorf("top critical variable = %s, want a loop variable", top[0].Value.Name)
	}
	// Scores are nonincreasing.
	for i := 1; i < len(res.Critical); i++ {
		if res.Critical[i].Score > res.Critical[i-1].Score+1e-18 {
			t.Fatal("critical ranking not sorted")
		}
	}
	// Post-assign mode records registers.
	if top[0].Reg < 0 {
		t.Error("post-assignment mode must record the register")
	}
	if top[0].Accesses <= 0 {
		t.Error("access estimate missing")
	}
}

func TestDeltaControlsIterations(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	loose, err := Analyze(a.Fn, Config{Alloc: a, Delta: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Analyze(a.Fn, Config{Alloc: a, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Iterations < loose.Iterations {
		t.Errorf("tighter δ took fewer iterations (%d) than loose (%d)",
			tight.Iterations, loose.Iterations)
	}
}

func TestNonConvergenceFlagged(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	// δ unreachably small + hard iteration cap + cold start: must stop
	// at the cap and be flagged.
	res, err := Analyze(a.Fn, Config{Alloc: a, Delta: 1e-12, MaxIter: 3, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("expected non-convergence with δ=1e-12 and 3 iterations")
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3 (the cap)", res.Iterations)
	}
	if res.FinalDelta <= 1e-12 {
		t.Errorf("final delta = %g, expected above δ", res.FinalDelta)
	}
}

func TestWarmStartReducesIterations(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	warm, err := Analyze(a.Fn, Config{Alloc: a, MaxIter: 256})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze(a.Fn, Config{Alloc: a, MaxIter: 256, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)",
			warm.Iterations, cold.Iterations)
	}
}

func TestJoinOperators(t *testing.T) {
	f := mustParse(t, `
func branchy(p) {
entry:
  c = cmplt p, p
  cbr c, a, b
a:
  x = const 1
  y1 = add x, x
  br join
b:
  z = const 2
  br join
join:
  w = const 3
  ret w
}`)
	a := allocate(t, f, regalloc.FirstFree)
	var peaks []float64
	for _, j := range []Join{JoinWeighted, JoinUnweighted, JoinMax} {
		res, err := Analyze(a.Fn, Config{Alloc: a, JoinOp: j})
		if err != nil {
			t.Fatalf("join %v: %v", j, err)
		}
		peaks = append(peaks, res.PeakTemp)
	}
	// Max join must dominate the averaged joins at the merge point.
	if peaks[2] < peaks[0]-1e-9 || peaks[2] < peaks[1]-1e-9 {
		t.Errorf("max join peak %g below averaged joins %v", peaks[2], peaks[:2])
	}
}

func TestWithLeakageRaisesTemps(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	base, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	leak, err := Analyze(a.Fn, Config{Alloc: a, WithLeakage: true})
	if err != nil {
		t.Fatal(err)
	}
	if leak.PeakTemp <= base.PeakTemp {
		t.Errorf("leakage did not raise peak: %g vs %g", leak.PeakTemp, base.PeakTemp)
	}
}

func TestPolicyOrderingFirstFreeVsChessboard(t *testing.T) {
	// The headline claim of Fig. 1: under comparable occupancy,
	// first-free concentrates heat while chessboard homogenizes it.
	fFF := mustParse(t, hotLoopSrc)
	aFF := allocate(t, fFF, regalloc.FirstFree)
	resFF, err := Analyze(aFF.Fn, Config{Alloc: aFF})
	if err != nil {
		t.Fatal(err)
	}
	fCB := mustParse(t, hotLoopSrc)
	aCB := allocate(t, fCB, regalloc.Chessboard)
	resCB, err := Analyze(aCB.Fn, Config{Alloc: aCB})
	if err != nil {
		t.Fatal(err)
	}
	if resCB.PeakTemp >= resFF.PeakTemp {
		t.Errorf("chessboard peak %g not below first-free peak %g",
			resCB.PeakTemp, resFF.PeakTemp)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	other := mustParse(t, hotLoopSrc)
	if _, err := Analyze(other, Config{Alloc: a}); err == nil {
		t.Error("mismatched allocation accepted")
	}
	bad := ir.NewFunc("bad")
	bad.NewBlock("entry")
	if _, err := Analyze(bad, Config{}); err == nil {
		t.Error("ill-formed function accepted")
	}
	badTech := power.Default65nm()
	badTech.CycleTime = -1
	if _, err := Analyze(f, Config{Tech: badTech}); err == nil {
		t.Error("invalid tech accepted")
	}
	short := &cfg.Freq{Block: make([]float64, len(a.Fn.Blocks)-1)}
	if _, err := Analyze(a.Fn, Config{Alloc: a, Freq: short}); err == nil {
		t.Error("frequencies for another block count accepted")
	}
}

func TestRegPeakMatchesFloorplan(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	fp, err := floorplan.New(16, 4, 4, 50e-6, floorplan.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	a, err := regalloc.Allocate(f, regalloc.Config{NumRegs: 16, Policy: regalloc.FirstFree, FP: fp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(a.Fn, Config{Alloc: a, FP: fp})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RegPeak) != 16 {
		t.Fatalf("RegPeak size = %d", len(res.RegPeak))
	}
	for r := 0; r < 16; r++ {
		if res.RegPeak[r] != res.Peak[fp.CellOf(r)] {
			t.Errorf("RegPeak[%d] inconsistent with Peak state", r)
		}
	}
}

func TestMeanBelowPeak(t *testing.T) {
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Mean {
		if res.Mean[c] > res.Peak[c]+1e-9 {
			t.Fatalf("cell %d: mean %g exceeds peak %g", c, res.Mean[c], res.Peak[c])
		}
		if math.IsNaN(res.Mean[c]) {
			t.Fatalf("cell %d mean is NaN", c)
		}
	}
}

func TestKappaControlsColdStartFidelity(t *testing.T) {
	// From a cold start with a fixed δ, a small κ "converges" before
	// the register file has meaningfully heated (each sweep advances
	// simulated time too little), under-predicting the fixpoint; a
	// large κ covers the thermal time constant and lands close to the
	// warm-started reference. This is exactly the convergence hazard
	// the paper flags for its Fig. 2 iteration.
	f := mustParse(t, hotLoopSrc)
	a := allocate(t, f, regalloc.FirstFree)
	ref, err := Analyze(a.Fn, Config{Alloc: a}) // warm start = quasi-exact
	if err != nil {
		t.Fatal(err)
	}
	small, err := Analyze(a.Fn, Config{Alloc: a, Kappa: 0.1, MaxIter: 1024, NoWarmStart: true, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Analyze(a.Fn, Config{Alloc: a, Kappa: 100, MaxIter: 1024, NoWarmStart: true, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	errSmall := math.Abs(small.PeakTemp - ref.PeakTemp)
	errLarge := math.Abs(large.PeakTemp - ref.PeakTemp)
	if errLarge >= errSmall {
		t.Errorf("κ=100 peak error %g K not below κ=0.1 error %g K (ref peak %g)",
			errLarge, errSmall, ref.PeakTemp)
	}

	// κ=0 selects the default, 100: the two compile identically.
	def, err := Analyze(a.Fn, Config{Alloc: a, MaxIter: 1024, NoWarmStart: true, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if def.Iterations != large.Iterations || def.PeakTemp != large.PeakTemp {
		t.Fatalf("κ=0: %d sweeps, peak %v; κ=100: %d sweeps, peak %v",
			def.Iterations, def.PeakTemp, large.Iterations, large.PeakTemp)
	}
	for i := range def.InstrState {
		if d := def.InstrState[i].MaxDelta(large.InstrState[i]); d != 0 {
			t.Fatalf("κ=0 and κ=100 differ at instruction %d by %g K", i, d)
		}
	}
}

func TestStringers(t *testing.T) {
	if JoinWeighted.String() != "weighted" || JoinMax.String() != "max" ||
		JoinUnweighted.String() != "unweighted" {
		t.Error("Join.String wrong")
	}
	if PriorFirstFree.String() != "first-free" || PriorUniform.String() != "uniform" ||
		PriorChessboard.String() != "chessboard" {
		t.Error("Prior.String wrong")
	}
	if Join(9).String() == "" || Prior(9).String() == "" {
		t.Error("unknown enum String empty")
	}
}
