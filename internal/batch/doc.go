// Package batch executes many independent jobs across a fixed worker
// pool. It provides the concurrency layer of the many-configuration
// sweeps the experiments run (policies × floorplans × tech nodes) and
// of the thermflowd analysis server: context cancellation, per-job
// error and panic isolation (PanicError), and a content-keyed result
// cache with single-flight semantics so repeated configurations are
// computed once and shared — within a Run call, across Run calls on
// the same Runner, and (through internal/jobs and internal/server)
// across HTTP clients. thermflowd's Runner (jobs.NewEngine) stores each
// job's answer under its job ID; the library's thermflow.Batch stores
// whole compilations, memory-only.
//
// Runner.Run returns results in job order once everything finished.
// Duplicate keys within one call are deduplicated up front (one
// representative runs, followers share), so a duplicate never parks a
// worker; duplicates across concurrent calls coalesce on the
// in-flight cache entry instead. thermflowd's job registry
// (internal/jobs) calls it once per job, so the registry, not the
// Runner's pool, bounds how many compiles a server runs at once.
//
// Cache correctness notes: an entry whose computation failed under a
// cancelled context is dropped rather than poisoning the key for
// other callers, and ResetCache zeroes both the cache and the Stats
// counters (thermflowd exposes that as DELETE /v2/cache).
package batch
