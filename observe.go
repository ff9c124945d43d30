package thermflow

import (
	"context"
	"time"
)

// SolverObserver receives one callback per thermal-analysis fixpoint
// run: the solver's name ("dense", "sparse"), the wall-clock seconds
// the fixpoint took, and whether it converged within its sweep budget.
// Observers run on the compiling goroutine and must be fast and safe
// for concurrent use; they observe solver runs, never results.
type SolverObserver func(solver string, seconds float64, converged bool)

// solverObserverKey carries a SolverObserver through a compile's
// context. Context transport (rather than package-global state) keeps
// observers per-engine: several job registries in one process — the
// in-process e2e cluster harness runs a whole pool of backends — each
// see only their own solver runs.
type solverObserverKey struct{}

// WithSolverObserver returns a context whose compiles report solver
// timings to obs. Observation is metadata only: it never influences a
// compile's result or its cache identity.
func WithSolverObserver(ctx context.Context, obs SolverObserver) context.Context {
	if obs == nil {
		return ctx
	}
	return context.WithValue(ctx, solverObserverKey{}, obs)
}

// solverObserverFrom extracts the context's observer, or nil.
func solverObserverFrom(ctx context.Context) SolverObserver {
	obs, _ := ctx.Value(solverObserverKey{}).(SolverObserver)
	return obs
}

// observeSolver times one fixpoint run and reports it to the context's
// observer, if any. It returns immediately-callable start/stop halves
// so the caller's code reads linearly around the Analyze call.
func observeSolver(ctx context.Context, solver Solver) func(converged bool) {
	obs := solverObserverFrom(ctx)
	if obs == nil {
		return func(bool) {}
	}
	start := time.Now()
	return func(converged bool) {
		obs(solver.String(), time.Since(start).Seconds(), converged)
	}
}
