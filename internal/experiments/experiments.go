// Package experiments contains one driver per reproduced artifact of
// the paper: Figure 1 (thermal maps per register-assignment policy),
// Figure 2 (the analysis's convergence behaviour), the derived
// experiments E3–E7 validating the prose claims, and the ablations
// A1–A2. Each driver prints its tables/maps to a writer and returns a
// typed result so tests and benchmarks can assert the expected shapes.
//
// cmd/experiments runs them all and prints the outcomes (README,
// "Commands").
package experiments

import (
	"context"
	"fmt"
	"io"

	"thermflow"
)

// Config controls experiment execution.
type Config struct {
	// Out receives the human-readable report (nil = discard).
	Out io.Writer
	// Quick reduces sweep sizes for use inside benchmarks.
	Quick bool
	// Workers sizes the worker pool of the batch compilation engine
	// (0 = GOMAXPROCS). Ignored when Batch is set.
	Workers int
	// Batch, when non-nil, is a shared compilation engine whose result
	// cache persists across experiments (All wires one through every
	// driver). When nil each driver builds its own.
	Batch *thermflow.Batch
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.out(), format, args...)
}

func (c Config) section(title string) {
	fmt.Fprintf(c.out(), "\n=== %s ===\n\n", title)
}

// batch returns the shared compilation engine, or a private one.
func (c Config) batch() *thermflow.Batch {
	if c.Batch != nil {
		return c.Batch
	}
	return thermflow.NewBatch(c.Workers)
}

// compileAll batch-compiles the jobs and unwraps the results,
// returning the first failure (experiment inputs are static, so any
// failure aborts the experiment).
func (c Config) compileAll(jobs []thermflow.CompileJob) ([]*thermflow.Compiled, error) {
	res := c.batch().Compile(context.Background(), jobs)
	out := make([]*thermflow.Compiled, len(res))
	for i, r := range res {
		if r.Err != nil {
			o := jobs[i].Opts
			return nil, fmt.Errorf("job %d (policy %v, seed %d, κ=%g, join=%v): %w",
				i, o.Policy, o.Seed, o.Kappa, o.JoinOp, r.Err)
		}
		out[i] = r.Compiled
	}
	return out, nil
}

// compileKernel compiles a named kernel under a policy with default
// options, failing hard on errors (experiment inputs are static).
func compileKernel(name string, pol thermflow.Policy, seed int64) (*thermflow.Compiled, error) {
	p, err := thermflow.Kernel(name)
	if err != nil {
		return nil, err
	}
	return p.Compile(thermflow.Options{Policy: pol, Seed: seed})
}
