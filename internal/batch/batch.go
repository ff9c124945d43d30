package batch

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"thermflow/internal/cachestore"
)

// DefaultErrTTL bounds how long a deterministic failure is served from
// the store before the job is retried. Errors are worth caching — a
// known-bad job hammering the pool wastes it — but not worth pinning:
// a transient failure (resource pressure, a since-fixed bug behind a
// hook) must un-pin itself without a cache reset.
const DefaultErrTTL = 30 * time.Second

// Job is one unit of work. Fn must be safe to call from any goroutine.
type Job struct {
	// Key is the content key of the job's result. Jobs with equal keys
	// are assumed to compute identical values: the first one runs, the
	// rest share its result (including across Run calls on the same
	// Runner, and — when the Runner's store has a disk tier — across
	// processes). An empty key disables caching for the job.
	Key string
	// Fn computes the result. It should honour ctx for long work.
	Fn func(ctx context.Context) (any, error)
}

// Result is one job's outcome.
type Result struct {
	// Value is the job's return value (nil on error).
	Value any
	// Err is the job's error: the Fn error, a recovered panic, or the
	// context error for jobs cancelled before running.
	Err error
	// Cached reports whether the value was served by the result store
	// (either tier, from a previous Run, or from a duplicate key in
	// flight).
	Cached bool
}

// Stats summarizes a Runner's cache behaviour. Tier-level detail
// (entries, bytes, evictions, disk hits) lives in Runner.Store().
type Stats struct {
	// Hits counts jobs served from the store or an in-flight
	// duplicate, Misses jobs that ran.
	Hits, Misses uint64
	// Panics counts jobs that panicked (isolated into their Result).
	Panics uint64
}

// Runner executes job batches over a worker pool of fixed size,
// retaining its result store across Run calls. A Runner is safe for
// concurrent use.
type Runner struct {
	workers int
	store   *cachestore.Store
	errTTL  time.Duration

	mu       sync.Mutex
	inflight map[string]*entry

	hits, misses, panics atomic.Uint64
}

// entry is a single-flight slot for one in-flight key: done closes
// when the computing job finishes, after which val/err/dropped are
// immutable.
type entry struct {
	done chan struct{}
	val  any
	err  error
	// dropped marks a computation that failed under a cancelled
	// context; waiters with live contexts retry instead of inheriting
	// the foreign cancellation.
	dropped bool
}

// errValue wraps a deterministic failure for storage: the store holds
// values, not Results, and a wrapped error is how "this key always
// fails" is cached. It is unexported, so codecs (which live outside
// this package) cannot encode it — cached failures never reach disk.
type errValue struct{ err error }

// NewRunner returns a Runner with the given worker-pool size and a
// default memory-only result store; workers <= 0 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	store, err := cachestore.Open(cachestore.Config{})
	if err != nil {
		// Unreachable: a memory-only Open cannot fail.
		panic(fmt.Sprintf("batch: default store: %v", err))
	}
	return NewRunnerStore(workers, store)
}

// NewRunnerStore returns a Runner over the given result store, which
// supplies the memory tier's byte cap and (optionally) a disk tier
// that survives the process.
func NewRunnerStore(workers int, store *cachestore.Store) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, store: store, errTTL: DefaultErrTTL,
		inflight: make(map[string]*entry)}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// SetErrTTL overrides how long cached failures are served before the
// job is retried; d <= 0 restores DefaultErrTTL. Call before the first
// Run.
func (r *Runner) SetErrTTL(d time.Duration) {
	if d <= 0 {
		d = DefaultErrTTL
	}
	r.errTTL = d
}

// Store returns the Runner's result store (for tier stats).
func (r *Runner) Store() *cachestore.Store { return r.store }

// Inflight returns the number of keyed computations currently holding
// a single-flight slot — work the engine is executing or probing the
// store for right now. It is a point-in-time observability reading
// (the /metrics inflight gauge), not a synchronization primitive.
func (r *Runner) Inflight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

// Stats returns the cache counters accumulated so far.
func (r *Runner) Stats() Stats {
	return Stats{Hits: r.hits.Load(), Misses: r.misses.Load(), Panics: r.panics.Load()}
}

// ResetCache drops every stored result — both tiers — and zeroes the
// stats counters. In-flight computations complete but are not
// re-registered. The first error removing disk entries is returned;
// the store is cleared regardless.
func (r *Runner) ResetCache() error {
	r.mu.Lock()
	// Abandon (don't wait for) in-flight entries: their completions
	// see themselves deregistered and skip the store write. The map
	// must be cleared BEFORE the store: finish() relies on that order
	// to decide whether a racing Put needs taking back.
	r.inflight = make(map[string]*entry)
	r.mu.Unlock()
	err := r.store.Reset()
	r.hits.Store(0)
	r.misses.Store(0)
	r.panics.Store(0)
	return err
}

// Run executes the jobs and returns one Result per job, in order. It
// blocks until every job has finished, failed, or been skipped due to
// context cancellation; it never returns an error itself — each job's
// outcome is isolated in its Result.
func (r *Runner) Run(ctx context.Context, jobs []Job) []Result {
	out := make([]Result, len(jobs))

	// Dedupe keyed jobs up front: one representative per key runs, the
	// duplicates share its result afterwards. Without this a duplicate
	// would park a worker on the in-flight entry, shrinking the pool
	// while unique jobs queue behind it.
	reps := make([]int, 0, len(jobs))
	followers := make(map[int][]int)
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.Key != "" {
			if ri, ok := seen[j.Key]; ok {
				followers[ri] = append(followers[ri], i)
				continue
			}
			seen[j.Key] = i
		}
		reps = append(reps, i)
	}

	idx := make(chan int, len(reps))
	for _, i := range reps {
		idx <- i
	}
	close(idx)

	n := r.workers
	if n > len(reps) {
		n = len(reps)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var res Result
				if err := ctx.Err(); err != nil {
					res = Result{Err: err}
				} else {
					res = r.runJob(ctx, jobs[i])
				}
				out[i] = res
				fres := res
				if fres.Err == nil {
					fres.Cached = true
				}
				for _, fi := range followers[i] {
					if fres.Err == nil {
						r.hits.Add(1)
					}
					out[fi] = fres
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob executes one job through the single-flight layer and the
// result store.
func (r *Runner) runJob(ctx context.Context, job Job) Result {
	if job.Key == "" {
		r.misses.Add(1)
		v, err := r.safeCall(ctx, job.Fn)
		return Result{Value: v, Err: err}
	}
	for {
		r.mu.Lock()
		if e, ok := r.inflight[job.Key]; ok {
			r.mu.Unlock()
			select {
			case <-e.done:
				if e.dropped {
					// The computing caller was cancelled; that is not
					// a property of the key — retry under our context.
					continue
				}
				r.hits.Add(1)
				return Result{Value: e.val, Err: e.err, Cached: true}
			case <-ctx.Done():
				return Result{Err: ctx.Err()}
			}
		}
		e := &entry{done: make(chan struct{})}
		r.inflight[job.Key] = e
		r.mu.Unlock()

		// Probe the store while holding the in-flight slot, so a slow
		// disk read also happens once per key, with duplicates parked
		// on the entry rather than hammering the disk.
		if v, ok := r.store.Get(job.Key); ok {
			if ev, isErr := v.(errValue); isErr {
				e.err = ev.err
			} else {
				e.val = v
			}
			r.hits.Add(1)
			r.finish(job.Key, e, false)
			return Result{Value: e.val, Err: e.err, Cached: true}
		}

		r.misses.Add(1)
		e.val, e.err = r.safeCall(ctx, job.Fn)
		if e.err != nil && ctx.Err() != nil {
			// A cancellation-tainted failure is not a property of the
			// key; drop the entry so waiters and later Runs retry.
			e.dropped = true
			r.finish(job.Key, e, false)
			return Result{Value: e.val, Err: e.err}
		}
		r.finish(job.Key, e, true)
		return Result{Value: e.val, Err: e.err}
	}
}

// finish completes an in-flight entry: optionally persists its result
// to the store, deregisters it, and releases waiters. The store write
// is skipped when the entry is no longer registered — ResetCache
// abandoned it, and a completed computation must not resurrect a
// cleared cache ("complete but not re-registered").
func (r *Runner) finish(key string, e *entry, persist bool) {
	if persist && r.stillInFlight(key, e) {
		if e.err == nil {
			r.store.Put(key, e.val)
		} else {
			// Deterministic failures are cached too, but with a short
			// expiry and memory-only (errValue is unexported, so no
			// codec can encode it): recomputing a known-bad job wastes
			// the pool, yet a transient failure must not pin a bad
			// result forever.
			r.store.PutTTL(key, errValue{err: e.err}, r.errTTL)
		}
		// Recheck after the write: ResetCache clears the in-flight map
		// strictly before it clears the store, so if the entry is still
		// registered now, any racing reset's store clear also covers
		// the Put above; if it is gone, the Put may have landed after
		// the clear — take it back rather than resurrect a cleared
		// cache. (The worst case of the take-back is dropping a result
		// a post-reset recompute just stored, which is only a cache
		// miss, never a wrong value.)
		if !r.stillInFlight(key, e) {
			r.store.Delete(key)
		}
	}
	r.mu.Lock()
	if r.inflight[key] == e {
		delete(r.inflight, key)
	}
	r.mu.Unlock()
	close(e.done)
}

// stillInFlight reports whether e is still the registered in-flight
// entry for key.
func (r *Runner) stillInFlight(key string, e *entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight[key] == e
}

// PanicError is the error a panicking job is converted into. Callers
// that surface job failures to users (e.g. the HTTP server) can
// distinguish it with errors.As: a panic is an internal fault, not a
// property of the request.
type PanicError struct {
	// Val is the recovered panic value; Stack the goroutine stack at
	// the point of recovery.
	Val   any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: job panicked: %v\n%s", e.Val, e.Stack)
}

// safeCall invokes fn, converting a panic into a *PanicError (with the
// stack, which the recovery would otherwise discard) so one bad job
// cannot take down the batch.
func (r *Runner) safeCall(ctx context.Context, fn func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			err = &PanicError{Val: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}
