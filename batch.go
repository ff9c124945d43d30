package thermflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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

// BatchStats summarizes a Batch's cache behaviour.
type BatchStats struct {
	// Hits counts jobs served from the cache (or by an identical job
	// already in flight), Misses jobs compiled.
	Hits, Misses uint64
	// Panics counts jobs that panicked (isolated into their result).
	Panics uint64
}

// Batch is a reusable concurrent compilation engine: a fixed worker
// pool plus a content-keyed result cache keyed on the program text and
// the compile options, so repeated configurations — the common shape
// of policy/floorplan/technology sweeps — are compiled once. A Batch
// is safe for concurrent use and retains its cache across Compile
// calls. The cache holds whole compilations in memory only, under the
// cachestore's default byte cap; thermflowd keeps and persists answers
// instead (see Answer).
type Batch struct {
	r *batch.Runner
}

// NewBatch returns a Batch over a worker pool of the given size;
// workers <= 0 selects GOMAXPROCS.
func NewBatch(workers int) *Batch {
	store, err := cachestore.Open(cachestore.Config{SizeOf: compiledSize})
	if err != nil {
		// Unreachable: only a disk tier can fail to open.
		panic(fmt.Sprintf("thermflow: memory-only batch: %v", err))
	}
	return &Batch{r: batch.NewRunnerStore(workers, store)}
}

// Workers returns the worker-pool size.
func (b *Batch) Workers() int { return b.r.Workers() }

// Stats returns the cache counters accumulated so far.
func (b *Batch) Stats() BatchStats {
	s := b.r.Stats()
	return BatchStats{Hits: s.Hits, Misses: s.Misses, Panics: s.Panics}
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
			// cancellation-tainted failure.
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
// content. Returns "" (uncached) for malformed jobs and for options
// with no canonical encoding (non-finite floats).
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
	// is the same in every process. Without a Key the Program's
	// pointer stands in: only jobs naming the *same* Program share.
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

// compiledSize estimates a cache entry's resident footprint for the
// cache's byte cap. Thermal states dominate: one float64 per grid cell
// per program point, across instruction and block states.
func compiledSize(v any) int64 {
	c, ok := v.(*Compiled)
	if !ok {
		return 512 // cached failures and other small residue
	}
	const perInstr = 160 // rough IR + assignment cost per instruction
	size := int64(2048)
	if c.Alloc != nil && c.Alloc.Fn != nil {
		size += int64(c.Alloc.Fn.NumInstrs()) * perInstr
	}
	if t := c.Thermal; t != nil {
		cells := int64(len(t.Peak))
		states := int64(len(t.InstrState)+len(t.BlockIn)) + 2
		size += states * (cells*8 + 32)
		size += int64(len(t.RegPeak)+len(t.DeltaHistory)) * 8
		size += int64(len(t.Critical)) * 64
	}
	return size
}
