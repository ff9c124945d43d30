package regalloc_test

import (
	"math"
	"testing"

	"thermflow/internal/cfg"
	"thermflow/internal/regalloc"
	"thermflow/internal/workload"
)

// Allocate estimates frequencies once, on the input function. Spilling
// only inserts instructions into existing blocks, so the estimate must
// equal, bit for bit, a fresh one on the spill-rewritten function: the
// estimate every colouring round and the thermal analysis of Fn would
// otherwise make again.
func TestAllocationFreqMatchesFreshEstimate(t *testing.T) {
	const want = 20
	multi := 0
	for seed := int64(1); seed <= 400 && multi < want; seed++ {
		fn := workload.Generate(workload.GenConfig{
			Seed: seed, Pressure: 14 + int(seed%7), Segments: 4 + int(seed%3), LoopDepth: 2,
			Irregularity: 0.1 * float64(seed%4), TripCount: 4 + int(seed%5),
		})
		pol := regalloc.Policies[int(seed)%len(regalloc.Policies)]
		a, err := regalloc.Allocate(fn, regalloc.Config{NumRegs: 16, Policy: pol, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Rounds < 2 {
			continue
		}
		multi++
		g := cfg.Build(a.Fn)
		if err := sameFreq(a.Freq, cfg.EstimateFreq(g, g.Loops(0))); err != "" {
			t.Fatalf("seed %d (%d rounds): Allocation.Freq differs from a fresh estimate on Fn: %s",
				seed, a.Rounds, err)
		}
	}
	if multi < want {
		t.Fatalf("only %d generated programs spilled for 2 or more rounds, want %d", multi, want)
	}
}

// sameFreq names the first difference between two estimates in their
// bits, or returns "".
func sameFreq(got, want *cfg.Freq) string {
	if len(got.Block) != len(want.Block) {
		return "block counts differ"
	}
	for i := range got.Block {
		if math.Float64bits(got.Block[i]) != math.Float64bits(want.Block[i]) {
			return "block frequencies differ"
		}
	}
	for name, m := range map[string][2]map[cfg.EdgeKey]float64{
		"edge frequencies": {got.Edge, want.Edge},
		"probabilities":    {got.Prob, want.Prob},
	} {
		if len(m[0]) != len(m[1]) {
			return name + ": edge counts differ"
		}
		for k, v := range m[1] {
			if g, ok := m[0][k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
				return name + " differ on " + k.String()
			}
		}
	}
	return ""
}
