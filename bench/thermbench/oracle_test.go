package main

import (
	"encoding/json"
	"math"
	"testing"
)

// oracleFixture compiles one kernel input and returns it with a
// reference holding its result, round-tripped through the file format.
func oracleFixture(t *testing.T) (*input, result, float64, *reference) {
	t.Helper()
	ins, err := kernelSweepInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	in := &ins[0]
	c, err := in.Prog.Compile(in.Opts)
	if err != nil {
		t.Fatal(err)
	}
	r := resultOf(c)
	ref := &reference{Schema: refSchema, Seed: 1, Entries: map[string]refEntry{
		in.ID: {PeakTemp: r.PeakTemp, RegPeak: r.RegPeak, Converged: r.Converged},
	}}
	var decoded reference
	if err := json.Unmarshal(encodeReference(ref), &decoded); err != nil {
		t.Fatalf("reference file does not parse: %v", err)
	}
	return in, r, c.Tech().TAmbient, &decoded
}

func TestOracleCountsPerturbedResults(t *testing.T) {
	in, r, ambient, ref := oracleFixture(t)
	or := &oracle{ref: ref}
	or.check(in, r, ambient)
	if !or.correct() || or.wrongCount().N != 0 {
		t.Fatalf("the reference's own result counted wrong: %+v", or.wrongCount())
	}

	perturbed := r
	perturbed.RegPeak = append([]float64(nil), r.RegPeak...)
	perturbed.RegPeak[0] += 1e-5
	or.check(in, perturbed, ambient)
	hotter := r
	hotter.PeakTemp += 1e-5
	or.check(in, hotter, ambient)
	flipped := r
	flipped.Converged = !r.Converged
	or.check(in, flipped, ambient)
	within := r
	within.PeakTemp += refTolerance / 2
	or.check(in, within, ambient)

	if got := or.wrongCount(); got.N != 3 || !got.Checked {
		t.Errorf("wrong_results = %+v, want 3 checked", got)
	}
	if or.correct() {
		t.Error("oracle reports correct after wrong results")
	}
	if b, _ := json.Marshal(or.wrongCount()); string(b) != "3" {
		t.Errorf("wrong_results renders %s", b)
	}
}

func TestOracleInvariantsWithoutReference(t *testing.T) {
	in, r, ambient, _ := oracleFixture(t)
	or := &oracle{}
	or.check(in, r, ambient)
	if !or.correct() {
		t.Fatal("a sound result broke an invariant")
	}
	if b, _ := json.Marshal(or.wrongCount()); string(b) != `"unchecked"` {
		t.Errorf("wrong_results without a reference renders %s", b)
	}
	for name, bad := range map[string]result{
		"nan":           {PeakTemp: math.NaN(), RegPeak: r.RegPeak},
		"below ambient": {PeakTemp: r.PeakTemp, RegPeak: append([]float64{ambient - 1}, r.RegPeak[1:]...)},
		"above peak":    {PeakTemp: r.PeakTemp, RegPeak: append([]float64{r.PeakTemp + 1}, r.RegPeak[1:]...)},
		"infinite":      {PeakTemp: math.Inf(1), RegPeak: r.RegPeak},
	} {
		o := &oracle{}
		o.check(in, bad, ambient)
		if o.correct() {
			t.Errorf("%s: invariant violation not counted", name)
		}
	}
}
