package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func testEnv(t *testing.T, trace bool) (runEnv, *benchmarkSpec) {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	return runEnv{root: root, out: t.TempDir(), seed: 1, seconds: 0, trace: trace, workers: 2}, spec
}

// Every library workload runs end to end on a few of its inputs, in
// both modes, and reports every metric BENCHMARK.json names.
func TestLibraryWorkloadsSmoke(t *testing.T) {
	tiny := map[string]func(int64) ([]input, error){
		"kernel-sweep": func(s int64) ([]input, error) {
			ins, err := kernelSweepInputs(s)
			return ins[:6], err
		},
		"spill-pressure": func(s int64) ([]input, error) { return spillInputs(s, 4) },
		"mega-cold":      func(s int64) ([]input, error) { return megaInputs(s, 2) },
	}
	for name, build := range tiny {
		for _, trace := range []bool{false, true} {
			env, spec := testEnv(t, trace)
			res, err := runLibrary(context.Background(), env, name, build)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%+v invariants=%d",
					name, trace, res.Correct, res.Attempted, res.Failed, res.WrongResults, res.InvariantFailures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				}
			}
			if _, err := resultLine(spec, trace, []runResult{*res}); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(env.out, name+".trace.json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			if trace && name == "mega-cold" {
				for _, m := range []string{"tdfa.solver.dense_ms", "tdfa.solver.sparse_ms", "tdfa.solver.region_ms",
					"tdfa.solver.region_slack_ms", "tdfa.solver.region_slack_iterations"} {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("mega-cold: solver metric %s missing", m)
					}
				}
			}
		}
	}
}

// Seeds 1-3 carry references, so results are checked against them; a
// seed without one still runs and reports wrong_results unchecked.
func TestReferenceFilesCoverTheirSeeds(t *testing.T) {
	env, _ := testEnv(t, false)
	for seed := int64(1); seed <= 3; seed++ {
		ref, err := loadReference(env.root, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			t.Fatalf("no reference file for seed %d", seed)
		}
		ins, err := hotSetInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ins {
			if _, ok := ref.Entries[ins[i].ID]; !ok {
				t.Errorf("seed %d reference lacks hot-set spec %s", seed, ins[i].Name)
			}
		}
	}
	if ref, err := loadReference(env.root, 1<<40); ref != nil || err != nil {
		t.Errorf("seed without a file: ref %v err %v", ref != nil, err)
	}
}
