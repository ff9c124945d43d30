package thermflow

import (
	"strings"
	"testing"

	"thermflow/internal/tdfa"
)

func TestKernelsListed(t *testing.T) {
	names := Kernels()
	if len(names) < 5 {
		t.Fatalf("only %d kernels", len(names))
	}
	for _, n := range names {
		if _, err := Kernel(n); err != nil {
			t.Errorf("Kernel(%s): %v", n, err)
		}
	}
	if _, err := Kernel("bogus"); err == nil {
		t.Error("bogus kernel accepted")
	}
}

func TestParseAndCompile(t *testing.T) {
	p, err := Parse(`
func f(n) {
entry:
  i = const 0
  one = const 1
  br head
head: !trip 20
  c = cmplt i, n
  cbr c, body, exit
body:
  i2 = add i, one
  i = mov i2
  br head
exit:
  ret i
}`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Thermal == nil || !c.Thermal.Converged {
		t.Fatal("analysis missing or unconverged")
	}
	if c.Alloc == nil || len(c.Alloc.UsedRegs()) == 0 {
		t.Fatal("allocation missing")
	}
	run, err := c.RunWith([]int64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Ret != 7 {
		t.Errorf("ret = %d, want 7", run.Ret)
	}
	if !strings.Contains(c.Heatmap(), "scale:") {
		t.Error("heatmap missing")
	}
}

func TestParseModuleInlinesAndCompiles(t *testing.T) {
	p, err := ParseModule(`
func helper(x) {
entry:
  r = mul x, x
  ret r
}
func main(a) {
entry:
  v = call helper, a
  one = const 1
  w = add v, one
  ret w
}`, "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.RunWith([]int64{6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Ret != 37 {
		t.Errorf("main(6) = %d, want 37", run.Ret)
	}
	if !c.Thermal.Converged {
		t.Error("analysis of inlined module did not converge")
	}
	if _, err := ParseModule("func f() {\nentry:\n  ret\n}", "ghost"); err == nil {
		t.Error("unknown root accepted")
	}
}

func TestCompileKernelAndValidate(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Options{Policy: FirstFree})
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.Run(16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Expect != nil && run.Ret != p.Expect(16) {
		t.Errorf("dot(16) = %d, want %d", run.Ret, p.Expect(16))
	}
	acc, gt, err := c.Validate(64)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Steady == nil || gt.DynEnergy <= 0 {
		t.Error("ground truth incomplete")
	}
	// The prediction must correlate with the measurement and identify
	// hot cells (the paper's "reasonable accuracy" claim).
	if acc.Pearson < 0.5 {
		t.Errorf("Pearson = %g, want >= 0.5", acc.Pearson)
	}
	if acc.Top4Overlap < 0.5 {
		t.Errorf("Top4Overlap = %g, want >= 0.5", acc.Top4Overlap)
	}
}

func TestPolicyOrderingViaFacade(t *testing.T) {
	peaks := map[Policy]float64{}
	for _, pol := range []Policy{FirstFree, Chessboard} {
		p, err := Kernel("fir")
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		peaks[pol] = c.Thermal.PeakTemp
	}
	if peaks[Chessboard] >= peaks[FirstFree] {
		t.Errorf("chessboard peak %g not below first-free %g",
			peaks[Chessboard], peaks[FirstFree])
	}
}

func TestOptimizationsPreserveSemantics(t *testing.T) {
	p, err := Kernel("checksum")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Options{Policy: FirstFree})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Expect(12)

	t.Run("spill", func(t *testing.T) {
		oc, err := c.SpillCritical(2)
		if err != nil {
			t.Fatal(err)
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
	t.Run("split", func(t *testing.T) {
		oc, err := c.SplitCritical(2)
		if err != nil {
			t.Fatal(err)
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
	t.Run("nops", func(t *testing.T) {
		oc, n, err := c.InsertCooldownNops(c.Thermal.PeakTemp-0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Error("no NOPs inserted")
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
	t.Run("reassign", func(t *testing.T) {
		oc, err := c.ThermalReassign()
		if err != nil {
			t.Fatal(err)
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
	t.Run("schedule", func(t *testing.T) {
		oc, err := c.ThermalSchedule()
		if err != nil {
			t.Fatal(err)
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
	t.Run("promote", func(t *testing.T) {
		oc, _, err := c.PromoteLoads()
		if err != nil {
			t.Fatal(err)
		}
		run, err := oc.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("got %d, want %d", run.Ret, want)
		}
	})
}

func TestEarlyAnalysis(t *testing.T) {
	p, err := Kernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.AnalyzeEarly(EarlyPrior(FirstFree), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Critical) == 0 {
		t.Fatal("early analysis ranked nothing")
	}
	// The early ranking should agree with the post-assignment ranking
	// on at least one of the top-3 variables.
	c, err := p.Compile(Options{Policy: FirstFree})
	if err != nil {
		t.Fatal(err)
	}
	early := map[string]bool{}
	for _, vh := range res.TopCritical(3) {
		early[vh.Value.Name] = true
	}
	agree := false
	for _, vh := range c.Thermal.TopCritical(3) {
		if early[vh.Value.Name] {
			agree = true
		}
	}
	if !agree {
		t.Error("early and post-assignment critical rankings fully disagree")
	}
}

func TestGenerateFacade(t *testing.T) {
	p := Generate(GenerateOptions{Seed: 3, Pressure: 10})
	c, err := p.Compile(Options{Policy: Random, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWith(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAndScaledHeatmap(t *testing.T) {
	p, _ := Kernel("dot")
	c, err := p.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Peak <= 0 || m.Peak < m.Mean {
		t.Errorf("metrics implausible: %+v", m)
	}
	hm := c.HeatmapScaled(300, 400)
	if !strings.Contains(hm, "scale:") {
		t.Error("scaled heatmap missing legend")
	}
}

func TestPolicyByNameFacade(t *testing.T) {
	p, ok := PolicyByName("chessboard")
	if !ok || p != Chessboard {
		t.Error("PolicyByName failed")
	}
}

func TestEarlyPriorMapping(t *testing.T) {
	if EarlyPrior(FirstFree) != tdfa.PriorFirstFree {
		t.Error("FirstFree prior wrong")
	}
	if EarlyPrior(Random) != tdfa.PriorUniform {
		t.Error("Random prior wrong")
	}
	if EarlyPrior(Chessboard) != tdfa.PriorChessboard {
		t.Error("Chessboard prior wrong")
	}
}

func TestSkipAnalysis(t *testing.T) {
	p, _ := Kernel("fib")
	c, err := p.Compile(Options{SkipAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Thermal != nil {
		t.Error("analysis ran despite SkipAnalysis")
	}
	if c.Heatmap() != "" {
		t.Error("heatmap without analysis")
	}
	if _, err := c.SpillCritical(1); err == nil {
		t.Error("SpillCritical without analysis accepted")
	}
	if _, _, err := c.Validate(4); err == nil {
		t.Error("Validate without analysis accepted")
	}
}

// A window past the thermal step's substep cap is integrated in
// unstable substeps, and matmul at κ = 1e9 ends with NaN states that
// the convergence test and the peak both skip (comparisons with NaN
// are false). The analysis must fail, naming the instruction, its
// window and the cap, instead of serving a converged peak; kernels at
// the default κ still compile. The first sweep already goes NaN, and
// each sweep at this κ costs about a second (far more under -race),
// so the test runs one.
func TestNaNStatesFailTheAnalysis(t *testing.T) {
	p, err := Kernel("matmul")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Options{Kappa: 1e9, MaxIter: 1})
	if err == nil {
		t.Fatalf("matmul at κ=1e9 compiled to peak %v K (converged %v); want the physical-bound error",
			c.Thermal.PeakTemp, c.Thermal.Converged)
	}
	for _, want := range []string{"NaN K", "outside the physical bound", "window κ·freq·latency of",
		"past the thermal step's cap of 200000 substeps"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	for _, name := range Kernels() {
		k, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Compile(Options{}); err != nil {
			t.Errorf("%s at the default κ: %v", name, err)
		}
	}
}
