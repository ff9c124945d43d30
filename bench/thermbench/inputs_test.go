package main

import (
	"bytes"
	"math"
	"testing"

	"thermflow"
	"thermflow/internal/cfg"
)

// inputBytes renders an input set as the bytes a server would be sent.
func inputBytes(t *testing.T, ins []input) ([]byte, []string) {
	t.Helper()
	var b bytes.Buffer
	var ids []string
	for i := range ins {
		body, err := jobBody(&ins[i])
		if err != nil {
			t.Fatal(err)
		}
		b.Write(body)
		b.WriteByte('\n')
		ids = append(ids, ins[i].ID)
	}
	return b.Bytes(), ids
}

func TestSeedDeterminesInputs(t *testing.T) {
	builders := map[string]func(int64) ([]input, error){
		"kernel-sweep": kernelSweepInputs,
		"spill":        func(s int64) ([]input, error) { return spillInputs(s, 12) },
		"mega":         func(s int64) ([]input, error) { return megaInputs(s, 4) },
		"hot":          hotSetInputs,
		"fresh":        func(s int64) ([]input, error) { return freshInputs(s, 12) },
	}
	for name, build := range builders {
		a, err := build(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := build(8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ab, aIDs := inputBytes(t, a)
		bb, bIDs := inputBytes(t, b)
		cb, _ := inputBytes(t, c)
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: seed 7 produced two different input sets", name)
		}
		for i := range aIDs {
			if aIDs[i] != bIDs[i] {
				t.Errorf("%s: input %d has IDs %s and %s", name, i, aIDs[i], bIDs[i])
			}
		}
		if bytes.Equal(ab, cb) {
			t.Errorf("%s: seeds 7 and 8 produced the same inputs", name)
		}
	}
}

func TestServeMixIsSeededAndMostlyHot(t *testing.T) {
	a, b := serveMix(3, mixSteady, 2000), serveMix(3, mixSteady, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two mixes of one seed", i)
		}
	}
	if hot := len(a) - countFresh(a); hot < 1500 || hot > 1700 {
		t.Errorf("%d of 2000 arrivals hot, want about 80%%", hot)
	}
}

// A depth-3 mega-module with trip 32 stops at the frequency solver's
// sweep cap; the admission rule must reject it and take the next seed.
func TestAdmissionRejectsCapHitModule(t *testing.T) {
	capHit := thermflow.GenerateMega(thermflow.MegaOptions{Seed: 1, Depth: 3, TripCount: 32})
	if r := admissionResidual(capHit.Fn); r <= maxResidual {
		t.Fatalf("cap-hit module residual %g, expected above %g", r, maxResidual)
	}
	small := thermflow.GenerateMega(thermflow.MegaOptions{Seed: 1, Arms: 4, Depth: 2, TripCount: 4})
	var tried []int
	ins, err := admit("probe", []thermflow.Options{megaOpts}, func(attempt int) *thermflow.Program {
		tried = append(tried, attempt)
		if attempt == 0 {
			return capHit
		}
		return small
	})
	if err != nil {
		t.Fatal(err)
	}
	var or oracle
	if r := or.checkResiduals(ins); len(tried) != 2 || r > maxResidual || or.invariants.Load() != 0 {
		t.Errorf("admission tried %v and admitted residual %g", tried, r)
	}
	// The same module is an invariant failure when it reaches a run.
	capIns, err := programInputs("cap", capHit, []thermflow.Options{megaOpts})
	if err != nil {
		t.Fatal(err)
	}
	if or.checkResiduals(capIns); or.invariants.Load() != 1 {
		t.Errorf("cap-hit module counted %d invariant failures, want 1", or.invariants.Load())
	}
}

// On programs where the reference estimate converges, any correct
// estimator under test agrees with it.
func TestSeedFreqAgreesOnAdmittedPrograms(t *testing.T) {
	for _, p := range []*thermflow.Program{
		thermflow.GenerateMega(thermflow.MegaOptions{Seed: 3, Arms: 6, Depth: 2, TripCount: 8}),
		thermflow.Generate(thermflow.GenerateOptions{Seed: 3, Pressure: 16, Segments: 5, LoopDepth: 2, TripCount: 6}),
	} {
		g := cfg.Build(p.Fn)
		li := g.Loops(0)
		block, prob := seedFreq(g, li)
		if r := residual(g, block, prob); r > maxResidual {
			t.Fatalf("reference estimate residual %g", r)
		}
		f := cfg.EstimateFreq(g, li)
		for _, b := range g.RPO {
			if d := math.Abs(f.Block[b.Index] - block[b.Index]); d > 1e-9*block[b.Index] {
				t.Errorf("block %d: frequency %g under test, %g in the reference estimate", b.Index, f.Block[b.Index], block[b.Index])
			}
		}
	}
}

func TestFreshProgramsAreDistinct(t *testing.T) {
	ins, err := freshInputs(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, in := range ins {
		if seen[in.ID] {
			t.Fatalf("fresh program %s repeats an earlier one", in.Name)
		}
		seen[in.ID] = true
	}
}
