// Package tdfa implements the paper's contribution: a forward
// data-flow analysis whose facts are thermal states of the register
// file.
//
// Following Fig. 2 of the paper, the analysis repeatedly sweeps the
// procedure, estimating the thermal state after every instruction, and
// stops when no instruction's state changes by more than a
// user-supplied δ between sweeps — or reports non-convergence when an
// iteration cap is hit ("this suggests that the thermal state of the
// program may be too difficult to predict at compile time").
//
// Two modes are provided, mirroring §4:
//
//   - post-assignment: run after register assignment, when "the
//     precise registers that are accessed by each instruction are
//     known";
//   - early (predictive): run before allocation, using a probabilistic
//     placement prior per assignment policy (Prior) — "the more
//     ambitious possibility ... which has never been considered
//     before".
//
// Analyze is the entry point; Config parameterizes everything (δ,
// iteration cap, time-acceleration factor κ, join operator, leakage,
// supplied frequencies — the allocator's estimate or a measured
// profile — and warm start). Two fixpoint solvers share
// the same transfer function: SolverDense is the paper-faithful
// whole-procedure sweep and the reference; SolverSparse is an
// allocation-free worklist variant that re-sweeps only blocks whose
// in-state still moves, differentially tested to stay within δ of the
// reference per instruction (properties_test.go at the repo root).
//
// The Result carries the per-instruction states, per-register peaks,
// convergence diagnostics and the critical-variable ranking the
// thermal-aware optimizations (internal/opt, root optimize.go)
// consume; thermflowd serializes a summary of it over HTTP
// (thermflow/api.CompileResponse).
package tdfa
