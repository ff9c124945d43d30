package thermflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
)

// CompileJob pairs a program with the options to compile it under, for
// batch execution.
type CompileJob struct {
	// Program is the program to compile.
	Program *Program
	// Opts are the compile options.
	Opts Options
}

// CompileResult is one CompileJob's outcome.
type CompileResult struct {
	// Compiled is the compilation result (nil when Err is set). Jobs
	// with identical content may share one *Compiled — treat it as
	// read-only.
	Compiled *Compiled
	// Err is the job's isolated error: a compile failure, a recovered
	// panic, or the context error for jobs cancelled before running.
	Err error
	// Cached reports whether the result came from the batch cache.
	Cached bool
}

// CacheTierStats are one cache tier's counters (see BatchStats).
type CacheTierStats struct {
	// Hits and Misses count lookups against this tier.
	Hits, Misses uint64
	// Puts counts entries admitted; Evictions entries removed to
	// respect the tier's byte cap.
	Puts, Evictions uint64
	// Corrupt counts disk entries dropped for failing validation.
	Corrupt uint64
	// Entries and Bytes are the tier's current size; CapBytes its cap.
	Entries  int
	Bytes    int64
	CapBytes int64
}

// BatchStats summarizes a Batch's cache behaviour.
type BatchStats struct {
	// Hits counts jobs served from the cache (either tier, or an
	// identical job already in flight), Misses jobs compiled.
	Hits, Misses uint64
	// Panics counts jobs that panicked (isolated into their result).
	Panics uint64

	// Memory and Disk detail the two store tiers. Disk is zero when no
	// cache directory is configured.
	Memory, Disk CacheTierStats
	// DiskEnabled reports whether a disk tier is configured.
	DiskEnabled bool
}

// BatchConfig parameterizes NewBatchConfig.
type BatchConfig struct {
	// Workers is the compile worker-pool size (<= 0 selects
	// GOMAXPROCS).
	Workers int

	// CacheMemBytes caps the in-memory result tier (<= 0 selects the
	// cachestore default, 256 MiB). The cap bounds estimated resident
	// bytes; least-recently-used results are evicted first.
	CacheMemBytes int64

	// CacheDir, when non-empty, adds a persistent on-disk result tier
	// in that directory (created if missing): results survive the
	// process, so a restarted engine pointed at the same directory
	// comes back warm. Entries are content-addressed by the same hash
	// as the memory tier and are corruption-tolerant — a damaged file
	// is dropped and recompiled, never trusted.
	CacheDir string

	// CacheDiskBytes caps the disk tier (<= 0 selects the cachestore
	// default, 1 GiB); stalest entries are evicted first.
	CacheDiskBytes int64

	// ErrTTL bounds how long a compile failure is served from the
	// cache before the job is retried (<= 0 selects the batch default,
	// 30s). Failures are cached memory-only and expire on their own,
	// so a transient failure never pins a bad result until a manual
	// cache reset.
	ErrTTL time.Duration
}

// Batch is a reusable concurrent compilation engine: a fixed worker
// pool plus a content-keyed result cache keyed on the program text and
// the compile options, so repeated configurations — the common shape
// of policy/floorplan/technology sweeps — are compiled once. A Batch
// is safe for concurrent use and retains its cache across Compile
// calls.
type Batch struct {
	r *batch.Runner

	// solverObs, when set, is injected into every compile's context so
	// the engine's solver runs report wall-clock timings (the /metrics
	// solver histograms). Per-Batch rather than global: several engines
	// in one process observe independently.
	solverObs atomic.Pointer[SolverObserver]
}

// NewBatch returns a memory-only Batch over a worker pool of the given
// size; workers <= 0 selects GOMAXPROCS. Use NewBatchConfig for a
// persistent disk tier or a custom memory cap.
func NewBatch(workers int) *Batch {
	b, err := NewBatchConfig(BatchConfig{Workers: workers})
	if err != nil {
		// Unreachable: only the disk tier can fail to open.
		panic(fmt.Sprintf("thermflow: memory-only batch: %v", err))
	}
	return b
}

// NewBatchConfig builds a Batch over a two-tier result store: a
// byte-capped in-memory LRU tier and, when cfg.CacheDir is set, a
// persistent content-addressed disk tier holding fully serialized
// compilation results (options, allocated IR, register assignment and
// every thermal state). It fails only when the disk tier cannot be
// opened.
func NewBatchConfig(cfg BatchConfig) (*Batch, error) {
	store, err := cachestore.Open(cachestore.Config{
		MaxMemBytes:  cfg.CacheMemBytes,
		SizeOf:       compiledSize,
		Dir:          cfg.CacheDir,
		MaxDiskBytes: cfg.CacheDiskBytes,
		Codec:        compiledCodec{},
	})
	if err != nil {
		return nil, fmt.Errorf("thermflow: opening result store: %w", err)
	}
	r := batch.NewRunnerStore(cfg.Workers, store)
	r.SetErrTTL(cfg.ErrTTL)
	return &Batch{r: r}, nil
}

// Workers returns the worker-pool size.
func (b *Batch) Workers() int { return b.r.Workers() }

// Inflight returns how many keyed compilations currently hold a
// single-flight slot — a point-in-time observability reading for the
// /metrics inflight gauge.
func (b *Batch) Inflight() int { return b.r.Inflight() }

// SetSolverObserver installs obs as the engine's solver-timing
// observer: every subsequent compile reports its fixpoint runs
// (solver name, wall-clock seconds, convergence) to obs. nil removes
// the observer. Safe to call concurrently with compiles; observation
// never influences results or cache identity.
func (b *Batch) SetSolverObserver(obs SolverObserver) {
	if obs == nil {
		b.solverObs.Store(nil)
		return
	}
	b.solverObs.Store(&obs)
}

// Stats returns the cache counters accumulated so far, including the
// per-tier detail of the result store.
func (b *Batch) Stats() BatchStats {
	s := b.r.Stats()
	st := b.r.Store().Stats()
	return BatchStats{
		Hits: s.Hits, Misses: s.Misses, Panics: s.Panics,
		Memory:      tierStats(st.Mem),
		Disk:        tierStats(st.Disk),
		DiskEnabled: st.DiskEnabled,
	}
}

func tierStats(t cachestore.TierStats) CacheTierStats {
	return CacheTierStats{
		Hits: t.Hits, Misses: t.Misses, Puts: t.Puts,
		Evictions: t.Evictions, Corrupt: t.Corrupt,
		Entries: t.Entries, Bytes: t.Bytes, CapBytes: t.CapBytes,
	}
}

// ResetCache drops every cached compilation from both tiers and zeroes
// the counters. The first error removing disk entries is returned; the
// cache is cleared regardless.
func (b *Batch) ResetCache() error { return b.r.ResetCache() }

// Lookup peeks the result store for the compilation filed under key —
// a v2 job ID — without compiling anything. Both tiers are consulted,
// so a restarted engine resolves IDs straight from the disk tier; this
// is how a replayed job log re-materializes terminal results. The
// lookup counts against the cache hit/miss statistics like any read.
func (b *Batch) Lookup(key string) (*Compiled, bool) {
	if key == "" {
		return nil, false
	}
	v, ok := b.r.Store().Get(key)
	if !ok {
		return nil, false
	}
	c, ok := v.(*Compiled)
	return c, ok
}

// Compile compiles every job concurrently and returns one result per
// job, in order. Failures are isolated per job; ctx cancels jobs not
// yet started.
func (b *Batch) Compile(ctx context.Context, jobs []CompileJob) []CompileResult {
	bjobs := make([]batch.Job, len(jobs))
	for i, j := range jobs {
		j := j
		bjobs[i] = batch.Job{Key: j.cacheKey(), Fn: func(ctx context.Context) (any, error) {
			if j.Program == nil {
				return nil, fmt.Errorf("thermflow: batch job without a program")
			}
			// The worker context makes long analyses cancellable
			// mid-fixpoint; the runner never caches a
			// cancellation-tainted failure. The engine-wide observer
			// composes with (never replaces) one the caller put on the
			// context — metrics and per-job tracing both see each run.
			if obs := b.solverObs.Load(); obs != nil {
				engine := *obs
				if prev := solverObserverFrom(ctx); prev != nil {
					ctx = WithSolverObserver(ctx, func(solver string, seconds float64, converged bool) {
						engine(solver, seconds, converged)
						prev(solver, seconds, converged)
					})
				} else {
					ctx = WithSolverObserver(ctx, engine)
				}
			}
			return j.Program.CompileContext(ctx, j.Opts)
		}}
	}
	raw := b.r.Run(ctx, bjobs)
	out := make([]CompileResult, len(raw))
	for i, r := range raw {
		out[i] = CompileResult{Err: r.Err, Cached: r.Cached}
		if c, ok := r.Value.(*Compiled); ok {
			out[i].Compiled = c
		}
	}
	return out
}

// CompileBatch compiles many (program, options) jobs across a worker
// pool of the given size (workers <= 0 selects GOMAXPROCS). It is the
// one-shot form of Batch.Compile; construct a Batch to reuse the
// result cache across calls.
func CompileBatch(ctx context.Context, jobs []CompileJob, workers int) []CompileResult {
	return NewBatch(workers).Compile(ctx, jobs)
}

// cacheKey derives the job's content key: the SHA-256 of the JobSpec
// canonical encoding over the program's textual IR and every compile
// option. Two jobs with equal keys compile to interchangeable results.
// For hook-less programs the key equals JobSpec.ID for the same
// content, so a v2 job ID, a batch cache slot and a disk-tier entry
// all name the same thing. Returns "" (uncached) for malformed jobs
// and for options with no canonical encoding (non-finite floats).
func (j CompileJob) cacheKey() string {
	if j.Program == nil || j.Program.Fn == nil {
		return ""
	}
	// Setup/Expect influence nothing at compile time, but downstream
	// consumers reach them through Compiled.Program, so programs with
	// different hooks must not share results. Func values cannot be
	// compared or hashed reliably (closures from one literal share a
	// code pointer), so a hooked program needs an identity in the key.
	// A stable Key (kernels carry one) names the hooks by content and
	// is the same in every process — the property that lets the disk
	// tier serve a restarted engine. Without a Key the Program's
	// pointer stands in: only jobs naming the *same* Program share,
	// and the result never leaves the process (see EncodeCompiled).
	hooks := ""
	switch {
	case j.Program.Key != "":
		hooks = "key:" + j.Program.Key
	case j.Program.Setup != nil || j.Program.Expect != nil:
		hooks = fmt.Sprintf("ptr:%p", j.Program)
	}
	b, err := canonicalJobBytes(j.Program.Fn.String(), hooks, j.Opts)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
