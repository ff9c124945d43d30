// Package jobs layers an addressable, schedulable job lifecycle over
// the answer engine (engine.go: a batch runner that keeps each job's
// thermflow.Answer under its ID): the substrate of thermflowd's HTTP
// API and of every scaling layer above it (the sharding gateway hashes
// the same job IDs this registry files work under).
//
// A job is a thermflow.JobSpec — canonical source plus options — whose
// content-derived ID is its address. Submit registers the job and
// returns immediately; the registry runs it on a bounded number of
// engine slots (higher Priority first), walks it through
// queued → running → done/failed/expired, and retains terminal jobs
// for a bounded time so clients can come back for the result; a
// retained job holds its answer, not the compilation behind it.
// Because the job ID is also the result store's key and the disk-tier
// entry name, a duplicate submit converges on the existing job and a
// re-submit of an evicted one is answered from the result store.
//
// Deadlines bound a job's total lifetime from submission, queue wait
// included: a job still queued past its deadline expires without
// running, and a running job is expired by the registry's own timer,
// which cancels its compile. Enforcement is exact down into the
// analysis: the tdfa solvers poll the job context per block
// evaluation, so a mid-flight compile stops within one block of the
// deadline instead of running to the next engine boundary (and the
// cancelled failure is never cached). A submit that converges on a
// live job moves its deadline to the later of the two, and a submit
// without one removes it: the job serves both.
//
// The registry deliberately does not touch the engine's result store:
// resetting the cache (DELETE /v2/cache) invalidates results, not job
// identity, so queued and running jobs keep their status entries and
// simply recompute.
//
// With Config.Log set, the registry is durable (wal.go): each submit
// is written ahead to a joblog WAL, and New replays it. A job whose
// answer is in the content-addressed result store comes back done and
// cached; every other job runs again, unless its deadline has passed
// or its spec no longer parses (then it ends with ErrInterrupted). So
// every accepted job survives a process kill. A job that has shown
// done also survives a power loss, because its submit record is
// synced before it shows done; a power loss can drop only jobs not yet
// done whose submit records were still in the log's unsynced fsync
// batch.
package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"thermflow"
	"thermflow/internal/batch"
	"thermflow/internal/joblog"
	"thermflow/internal/trace"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: Queued and Running are live; Done, Failed and
// Expired are terminal.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateExpired State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// ErrNotFound reports an unknown (or already-evicted) job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrBusy reports a registry at capacity with live jobs: every retained
// entry is queued or running, so nothing can be evicted to make room.
var ErrBusy = errors.New("jobs: registry at capacity")

// ErrQuota marks a submit refused because the submitting tenant is
// over its OWN queue bound — the 429 family: this tenant should slow
// down; the pool may be fine.
var ErrQuota = errors.New("tenant over quota")

// ErrShed marks work refused — or already-queued work dropped — by
// admission control because the shared queue crossed its shed
// watermark: the 503 family, pool saturation that is nobody's
// individual fault. Errors wrapping it carry a queue-depth detail.
var ErrShed = errors.New("shed under queue pressure")

// Defaults for Config fields left zero.
const (
	DefaultTTL       = 15 * time.Minute
	DefaultMaxJobs   = 4096
	DefaultAgePeriod = 30 * time.Second
)

// Timer is a cancelable deadline timer, the shape of *time.Timer
// armed by time.AfterFunc. Tests inject fakes through Config.AfterFunc
// so deadline waits are driven by the fake clock, not wall time.
type Timer interface{ Stop() bool }

// Config parameterizes New.
type Config struct {
	// Concurrency bounds how many registered jobs run at once
	// (<= 0 selects the engine's worker-pool size). Jobs beyond it
	// wait in StateQueued, highest Priority first.
	Concurrency int
	// TTL is how long terminal jobs stay pollable (<= 0 selects
	// DefaultTTL). Live jobs never expire from retention.
	TTL time.Duration
	// MaxJobs bounds retained entries, live and terminal together
	// (<= 0 selects DefaultMaxJobs). At the bound, the oldest
	// terminal job is evicted; if every entry is live, Submit
	// returns ErrBusy.
	MaxJobs int
	// MaxQueue bounds how many jobs may wait in the queue at once
	// (0 = unbounded, the pre-admission-control behavior). At the
	// bound, a new submit either displaces strictly lower-priority
	// queued work (which finishes failed with ErrShed) or is itself
	// refused with ErrShed.
	MaxQueue int
	// QueueWatermark is the depth at which admission turns selective:
	// from the watermark up, a submit must outrank something already
	// queued or it is refused with ErrShed — low-priority traffic
	// sheds BEFORE the queue saturates. 0 selects 3/4 of MaxQueue;
	// ignored when MaxQueue is 0.
	QueueWatermark int
	// AgeStep turns on priority aging: a queued job gains AgeStep
	// effective-priority points for every AgePeriod it has waited
	// (0 = aging off). Aging orders dispatch, picks shed victims and
	// gates watermark admission, so a low-class job that keeps losing
	// to fresh high-class traffic eventually outranks it — bounded
	// starvation instead of indefinite displacement. The job's own
	// Priority is never mutated; snapshots report the submitted value.
	AgeStep int
	// AgePeriod is the queue wait that earns one AgeStep (<= 0 with
	// AgeStep > 0 selects DefaultAgePeriod).
	AgePeriod time.Duration
	// Clock overrides the time source (nil selects time.Now).
	Clock func() time.Time
	// AfterFunc overrides deadline-timer creation (nil selects
	// time.AfterFunc). Inject it together with Clock: a fake clock
	// with real timers makes deadline tests timing-dependent.
	AfterFunc func(d time.Duration, f func()) Timer

	// Log, when non-nil, makes the registry durable: every submit is
	// appended to the write-ahead log, which the registry compacts into
	// a snapshot of its retained jobs once the records since the last
	// one reach both 512 and the retained count. Pass the Recovery from
	// joblog.Open to replay a previous process's jobs.
	Log      *joblog.Log
	Recovery *joblog.Recovery

	// Trace, when non-nil, records each job's lifecycle phases —
	// queue wait, run, solver time — as spans in the job's timeline
	// (GET /v2/jobs/{id}/trace). Jobs submitted without a span context
	// (WAL replays, untraced clients) record nothing.
	Trace *trace.Recorder
}

// Snapshot is an immutable view of one job at one instant.
type Snapshot struct {
	// ID is the job's content identity (thermflow.JobSpec.ID).
	ID string
	// State is the lifecycle position at snapshot time.
	State State
	// Priority and Deadline echo the spec's scheduling hints;
	// Deadline is absolute (zero when the spec had none).
	Priority int
	Deadline time.Time
	// Submitted, Started and Finished are the lifecycle timestamps
	// (zero when not yet reached).
	Submitted, Started, Finished time.Time
	// Cached reports whether the result came from the result store.
	Cached bool
	// Answer is the result (done only).
	Answer *thermflow.Answer
	// Err is the failure (failed and expired only).
	Err error
}

// Limits carries one submit's tenant-admission bounds, resolved by the
// HTTP layer from the tenant's quota profile. The zero value is the
// pre-tenancy behavior: untracked, unbounded.
type Limits struct {
	// Owner names the tenant for per-owner accounting ("" = untracked).
	Owner string
	// Class labels the tenant's priority class for shed attribution.
	Class string
	// MaxQueued caps the owner's simultaneously queued jobs; a submit
	// over it fails with ErrQuota (0 = unlimited).
	MaxQueued int
	// MaxRunning caps the owner's simultaneously running jobs; excess
	// work waits queued while other tenants' jobs dispatch past it
	// (0 = unlimited).
	MaxRunning int
}

// job is the registry's mutable record. All fields are guarded by the
// registry mutex except done, which is closed exactly once under it.
type job struct {
	id       string
	cjob     thermflow.CompileJob // what to compile; dropped once terminal
	specJSON []byte               // the spec's wire form, kept for the WAL (nil when volatile)
	priority int
	deadline time.Time
	seq      uint64 // submission order, the FIFO tiebreak
	owner    string // submitting tenant ("" = untracked)
	class    string // tenant class, for shed attribution
	maxRun   int    // owner's running cap at submit time (0 = unlimited)

	boost int // aging bonus, recomputed under the registry mutex

	// tr is the submit request's span context (zero for WAL replays and
	// untraced submits — then no spans are recorded). queueSpan/runSpan
	// are minted at dispatch so the solve span can parent under the run
	// span before the run span itself is recorded at finish.
	tr        trace.SpanContext
	queueSpan string
	runSpan   string

	// timer expires the job at its deadline once it runs or has a
	// waiter (nil otherwise); cancel stops its compile (nil unless
	// running).
	timer  Timer
	cancel context.CancelFunc

	state                        State
	submitted, started, finished time.Time
	cached                       bool
	answer                       *thermflow.Answer
	err                          error
	done                         chan struct{}
	qidx                         int // heap index; -1 once popped
}

// effective is the job's scheduling rank: submitted priority plus
// whatever aging has earned it so far.
func (j *job) effective() int { return j.priority + j.boost }

// Registry is the job store and scheduler. Safe for concurrent use.
type Registry struct {
	eng   *batch.Runner
	conc  int
	ttl   time.Duration
	max   int
	clock func() time.Time
	after func(d time.Duration, f func()) Timer

	log *joblog.Log // nil when volatile

	trace *trace.Recorder // nil disables lifecycle spans

	// solverObs, when set, sees every compile's fixpoint runs (the
	// /metrics solver histograms), beside each traced job's spans.
	solverObs atomic.Pointer[thermflow.SolverObserver]

	ctx    context.Context
	cancel context.CancelFunc

	maxQueue  int
	watermark int
	ageStep   int
	agePeriod time.Duration

	mu          sync.Mutex
	jobs        map[string]*job
	queue       jobQueue
	terminal    []*job // completion order, oldest first, for retention
	running     int
	seq         uint64
	owners      map[string]*ownerCounts
	shed        int64
	shedByClass map[string]int64
}

// ownerCounts tracks one tenant's live jobs for quota enforcement.
type ownerCounts struct {
	queued, running int
}

// New builds a registry over the given engine, which runs each job to
// its answer and keeps answers under their job IDs (see NewEngine).
func New(eng *batch.Runner, cfg Config) *Registry {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = eng.Workers()
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.AfterFunc == nil {
		cfg.AfterFunc = func(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
	}
	if cfg.MaxQueue > 0 {
		if cfg.QueueWatermark <= 0 || cfg.QueueWatermark > cfg.MaxQueue {
			cfg.QueueWatermark = cfg.MaxQueue * 3 / 4
		}
		if cfg.QueueWatermark < 1 {
			cfg.QueueWatermark = 1
		}
	}
	if cfg.AgeStep > 0 && cfg.AgePeriod <= 0 {
		cfg.AgePeriod = DefaultAgePeriod
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		eng: eng, conc: cfg.Concurrency, ttl: cfg.TTL, max: cfg.MaxJobs,
		clock: cfg.Clock, after: cfg.AfterFunc,
		log:      cfg.Log,
		trace:    cfg.Trace,
		maxQueue: cfg.MaxQueue, watermark: cfg.QueueWatermark,
		ageStep: cfg.AgeStep, agePeriod: cfg.AgePeriod,
		ctx: ctx, cancel: cancel,
		jobs:        make(map[string]*job),
		owners:      make(map[string]*ownerCounts),
		shedByClass: make(map[string]int64),
	}
	if r.log != nil && cfg.Recovery != nil && !cfg.Recovery.Empty() {
		r.mu.Lock()
		r.replayLocked(*cfg.Recovery)
		r.mu.Unlock()
	}
	return r
}

// SetSolverObserver installs obs as the registry's solver-timing
// observer: every compile a job runs from now on reports its fixpoint
// runs (solver name, wall-clock seconds, convergence) to obs. nil
// removes it. Safe to call concurrently with compiles; observation
// never influences results.
func (r *Registry) SetSolverObserver(obs thermflow.SolverObserver) { r.solverObs.Store(&obs) }

// Close cancels the contexts of running jobs (they finish as failed)
// and stops accepting the results of queued ones being dispatched.
// Registered state stays readable.
func (r *Registry) Close() { r.cancel() }

// Submit registers the job for spec and schedules it, returning its
// snapshot and whether a new job was created. A spec whose ID is
// already registered live or done converges on that job: the same work
// has the same address, so a duplicate submit is a lookup. A live job
// takes the later of its deadline and the new submit's, none being
// the latest. A retained job that failed or expired is replaced by a
// fresh one instead — its deadline, the admission that shed it or the
// cancellation that stopped it belonged to an earlier submit, and a
// deterministic failure comes back from the engine's short-lived
// failure cache.
func (r *Registry) Submit(spec thermflow.JobSpec) (Snapshot, bool, error) {
	return r.SubmitLimited(spec, Limits{})
}

// SubmitLimited is Submit under a tenant's admission bounds: the
// owner's queue cap is enforced (ErrQuota), pool-level admission
// control may refuse or displace work (ErrShed), and the owner's run
// cap shapes dispatch. Duplicate submits still converge without
// charging admission — a dedup is a lookup, not new work.
func (r *Registry) SubmitLimited(spec thermflow.JobSpec, lim Limits) (Snapshot, bool, error) {
	h, created, err := r.SubmitTraced(spec, lim, trace.SpanContext{})
	return h.Snapshot, created, err
}

// Handle is one submit's answer: the job's snapshot at submit time and
// the job itself, so a waiter keeps hold of it even after retention
// has dropped its ID from the registry.
type Handle struct {
	Snapshot
	r *Registry
	j *job
}

// Wait is Registry.Wait on the submitted job rather than on a lookup
// by ID: it blocks until the job is terminal or ctx is done.
func (h Handle) Wait(ctx context.Context) (Snapshot, error) { return h.r.wait(ctx, h.j) }

// SubmitTraced is SubmitLimited carrying the submit request's span
// context and returning a Handle: a genuinely new job records its
// lifecycle phases as spans under sc's trace (an invalid sc records
// nothing). A duplicate submit keeps the first submit's trace — the
// job is the same work.
func (r *Registry) SubmitTraced(spec thermflow.JobSpec, lim Limits, sc trace.SpanContext) (Handle, bool, error) {
	id, err := spec.ID()
	if err != nil {
		return Handle{}, false, err
	}
	// Duplicate-submit fast path: a registered ID answers from the
	// registry without re-parsing the source.
	now := r.clock()
	r.mu.Lock()
	r.pruneLocked(now)
	if j, ok := r.jobs[id]; ok && r.convergesLocked(j, now, spec.Deadline) {
		h := r.handleLocked(j)
		r.mu.Unlock()
		return h, false, nil
	}
	r.mu.Unlock()

	// Parse outside the lock; concurrent first submits of one ID may
	// both parse, but only one registers (re-checked below).
	cjob, err := spec.CompileJob()
	if err != nil {
		return Handle{}, false, err
	}
	var specJSON []byte
	if r.log != nil {
		if specJSON, err = json.Marshal(spec); err != nil {
			specJSON = nil // still runnable, just not replayable to a re-run
		}
	}
	now = r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	old, replacing := r.jobs[id]
	if replacing && r.convergesLocked(old, now, spec.Deadline) {
		return r.handleLocked(old), false, nil
	}
	for !replacing && len(r.jobs) >= r.max {
		if !r.evictOldestTerminalLocked() {
			return Handle{}, false, ErrBusy
		}
	}
	if err := r.admitLocked(now, spec.Priority, lim); err != nil {
		return Handle{}, false, err
	}
	r.seq++
	j := &job{
		id: id, cjob: cjob, specJSON: specJSON, priority: spec.Priority, seq: r.seq,
		owner: lim.Owner, class: lim.Class, maxRun: lim.MaxRunning,
		state: StateQueued, submitted: now,
		done: make(chan struct{}), qidx: -1,
	}
	if sc.Valid() {
		j.tr = sc
	}
	if spec.Deadline > 0 {
		j.deadline = now.Add(spec.Deadline)
	}
	// A failed or expired job under id is replaced; its Handles keep
	// it, and retention skips an entry it no longer owns.
	r.jobs[id] = j
	heap.Push(&r.queue, j)
	r.ownerDeltaLocked(j.owner, +1, 0)
	r.logSubmitLocked(j)
	r.dispatchLocked()
	return r.handleLocked(j), true, nil
}

// convergesLocked reports whether a new submit of j's spec, with
// relative deadline d (0 = none), is answered by j: true while j is
// live or done, false once it failed or expired (see Submit). A
// deadline that passed by now expires j first; a live j keeps the
// later deadline of the two. The move writes no WAL record, so a
// replay of j's submit record restores the first submit's deadline.
func (r *Registry) convergesLocked(j *job, now time.Time, d time.Duration) bool {
	r.refreshLocked(j, now)
	if j.state.Terminal() {
		return j.state == StateDone
	}
	switch {
	case j.deadline.IsZero():
		return true
	case d <= 0:
		j.deadline = time.Time{}
	case now.Add(d).After(j.deadline):
		j.deadline = now.Add(d)
	default:
		return true
	}
	if j.timer != nil {
		r.armLocked(j, now)
	}
	return true
}

// handleLocked wraps j's current snapshot into the Handle a submit
// returns.
func (r *Registry) handleLocked(j *job) Handle {
	return Handle{Snapshot: snapshotOf(j), r: r, j: j}
}

// admitLocked is pool admission control, run once per genuinely new
// job. Below the watermark everything is admitted. From the watermark
// up, a submit must strictly outrank the lowest-priority job already
// queued. At the hard cap a submit that outranks queued work displaces
// it — the victim finishes failed with ErrShed — so high-class work is
// never locked out by a backlog of low-class work. All comparisons use
// effective (aged) priority: a job that has waited long enough stops
// being the shed victim and starts refusing fresh traffic instead.
func (r *Registry) admitLocked(now time.Time, priority int, lim Limits) error {
	if lim.Owner != "" && lim.MaxQueued > 0 {
		if oc := r.owners[lim.Owner]; oc != nil && oc.queued >= lim.MaxQueued {
			return fmt.Errorf("jobs: tenant %q has %d jobs queued (cap %d): %w",
				lim.Owner, oc.queued, lim.MaxQueued, ErrQuota)
		}
	}
	if r.maxQueue <= 0 {
		return nil
	}
	r.ageLocked(now)
	depth := r.queue.Len()
	if depth < r.watermark {
		return nil
	}
	low := r.lowestQueuedLocked()
	if depth >= r.maxQueue {
		if low != nil && low.effective() < priority {
			r.shedLocked(low, depth)
			return nil
		}
		r.countShedLocked(lim.Class)
		return fmt.Errorf("jobs: queue full at depth %d: %w", depth, ErrShed)
	}
	if low != nil && priority <= low.effective() {
		r.countShedLocked(lim.Class)
		return fmt.Errorf("jobs: queue depth %d crossed shed watermark %d: %w",
			depth, r.watermark, ErrShed)
	}
	return nil
}

// ageLocked recomputes every queued job's aging boost against one
// captured now and restores heap order. The clock is read exactly once
// per pass and never inside Less — a heap ordered by a moving clock
// silently breaks its invariant.
func (r *Registry) ageLocked(now time.Time) {
	if r.ageStep <= 0 || r.queue.Len() == 0 {
		return
	}
	changed := false
	for _, j := range r.queue {
		b := int(now.Sub(j.submitted)/r.agePeriod) * r.ageStep
		if b < 0 {
			b = 0
		}
		if b != j.boost {
			j.boost = b
			changed = true
		}
	}
	if changed {
		heap.Init(&r.queue)
	}
}

// lowestQueuedLocked finds the shed victim: the lowest effective
// priority queued, youngest first within a rank — the work that would
// have run last anyway.
func (r *Registry) lowestQueuedLocked() *job {
	var low *job
	for _, j := range r.queue {
		if j.state != StateQueued {
			continue
		}
		if low == nil || j.effective() < low.effective() ||
			(j.effective() == low.effective() && j.seq > low.seq) {
			low = j
		}
	}
	return low
}

// shedLocked drops one queued job in favor of higher-priority work.
func (r *Registry) shedLocked(j *job, depth int) {
	r.countShedLocked(j.class)
	r.finishLocked(j, StateFailed, nil, false,
		fmt.Errorf("jobs: displaced by higher-priority work at queue depth %d: %w", depth, ErrShed))
}

func (r *Registry) countShedLocked(class string) {
	if class == "" {
		class = "none"
	}
	r.shed++
	r.shedByClass[class]++
}

// ownerDeltaLocked adjusts one tenant's live-job accounting, dropping
// the entry when it empties so the map tracks only active tenants.
func (r *Registry) ownerDeltaLocked(owner string, dq, dr int) {
	if owner == "" {
		return
	}
	oc := r.owners[owner]
	if oc == nil {
		if dq <= 0 && dr <= 0 {
			return
		}
		oc = &ownerCounts{}
		r.owners[owner] = oc
	}
	oc.queued += dq
	oc.running += dr
	if oc.queued <= 0 && oc.running <= 0 {
		delete(r.owners, owner)
	}
}

// ownerRunningLocked reports a tenant's currently running jobs.
func (r *Registry) ownerRunningLocked(owner string) int {
	if oc := r.owners[owner]; oc != nil {
		return oc.running
	}
	return 0
}

// Get returns the job's current snapshot. Retention is enforced here
// too: a terminal job past the TTL reads as ErrNotFound even on an
// otherwise idle registry.
func (r *Registry) Get(id string) (Snapshot, error) {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(now)
	j, ok := r.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	r.refreshLocked(j, now)
	return snapshotOf(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the snapshot current at that moment. The returned error is
// ctx's (the job itself is not an error — inspect Snapshot.State); an
// unknown ID is ErrNotFound.
func (r *Registry) Wait(ctx context.Context, id string) (Snapshot, error) {
	r.mu.Lock()
	r.pruneLocked(r.clock())
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return r.wait(ctx, j)
}

func (r *Registry) wait(ctx context.Context, j *job) (Snapshot, error) {
	// A queued job past its deadline has no dispatcher to expire it
	// until a slot frees; its timer lets waiters see the expiry when
	// it happens, not when the queue next moves.
	r.mu.Lock()
	if j.timer == nil {
		r.armLocked(j, r.clock())
	}
	r.mu.Unlock()
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLocked(j, now)
	return snapshotOf(j), ctx.Err()
}

// armLocked (re)arms j's expiry timer for its current deadline,
// stopping the one it replaces; none is armed when j has no deadline
// or is terminal. Timer creation goes through Config.AfterFunc, so a
// fake clock brings fake timers with it and deadline tests need no
// wall-clock slack. A deadline already in the past expires the job
// here and now — a timer is never armed with a non-positive duration.
// The timer fires into refreshLocked, which re-reads the deadline, so
// one that fires after a move is harmless.
func (r *Registry) armLocked(j *job, now time.Time) {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.deadline.IsZero() || j.state.Terminal() {
		return
	}
	d := j.deadline.Sub(now)
	if d <= 0 {
		r.refreshLocked(j, now)
		return
	}
	j.timer = r.after(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.refreshLocked(j, r.clock())
	})
}

// dispatchLocked starts queued jobs while slots are free, highest
// priority first. Jobs already expired in the queue are finalized, not
// started. A job whose owner is at its running cap is parked — set
// aside and re-queued after the pass — so other tenants' lower-
// priority work dispatches past it instead of head-of-line blocking.
func (r *Registry) dispatchLocked() {
	now := r.clock()
	r.ageLocked(now)
	var parked []*job
	for r.running < r.conc && r.queue.Len() > 0 {
		j := heap.Pop(&r.queue).(*job)
		if j.state != StateQueued {
			continue // finalized while queued (expired)
		}
		if !j.deadline.IsZero() && !now.Before(j.deadline) {
			r.finishLocked(j, StateExpired, nil, false,
				fmt.Errorf("deadline passed while queued: %w", context.DeadlineExceeded))
			continue
		}
		if j.owner != "" && j.maxRun > 0 && r.ownerRunningLocked(j.owner) >= j.maxRun {
			parked = append(parked, j)
			continue
		}
		j.state = StateRunning
		j.started = now
		r.running++
		r.ownerDeltaLocked(j.owner, -1, +1)
		r.recordQueuedLocked(j, now, "dispatched")
		ctx, cancel := context.WithCancel(r.ctx)
		j.cancel = cancel
		r.armLocked(j, now)
		go r.run(ctx, j, j.cjob)
	}
	for _, j := range parked {
		heap.Push(&r.queue, j)
	}
}

// run executes one dispatched job under ctx, which its expiry (or
// Close) cancels, and finalizes it. The engine files the answer under
// the job ID; the compilation it came from is garbage once run returns.
func (r *Registry) run(ctx context.Context, j *job, cj thermflow.CompileJob) {
	ctx = thermflow.WithSolverObserver(ctx, r.solverObserver(j))
	res := r.eng.Run(ctx, []batch.Job{{Key: j.id, Fn: func(ctx context.Context) (any, error) {
		c, err := cj.Program.CompileContext(ctx, cj.Opts)
		if err != nil {
			return nil, err
		}
		return c.Answer(), nil
	}}})[0]
	if res.Err == nil && r.log != nil {
		// The job must not show done before its submit record is on
		// stable storage: the disk tier does not fsync the answer the
		// engine has just stored, so after a power loss that record is
		// what runs the job again. Synced without r.mu held.
		if err := r.log.Sync(); err != nil {
			log.Printf("jobs: wal sync: %v", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.running--
	// A job its timer expired is already terminal; finishLocked leaves
	// it be.
	if res.Err == nil {
		a, _ := res.Value.(*thermflow.Answer)
		r.finishLocked(j, StateDone, a, res.Cached, nil)
	} else {
		r.finishLocked(j, StateFailed, nil, res.Cached, res.Err)
	}
	r.dispatchLocked()
}

// solverObserver is what j's compile reports its fixpoint runs to: the
// registry-wide observer and, for a traced job, a job.solve span per
// run under the job's run span, so solver time is separable from
// engine overhead. Nil when neither applies.
func (r *Registry) solverObserver(j *job) thermflow.SolverObserver {
	var engine thermflow.SolverObserver
	if obs := r.solverObs.Load(); obs != nil {
		engine = *obs
	}
	if !j.tr.Valid() || r.trace == nil {
		return engine
	}
	return func(solver string, seconds float64, converged bool) {
		if engine != nil {
			engine(solver, seconds, converged)
		}
		end := r.clock()
		dur := time.Duration(seconds * float64(time.Second))
		r.trace.Record(j.id, trace.Span{
			TraceID: j.tr.TraceID, SpanID: trace.NewSpanID(), Parent: j.runSpan,
			Name: "job.solve", Start: end.Add(-dur), Duration: dur,
			Attrs: map[string]string{
				"solver":    solver,
				"converged": fmt.Sprintf("%t", converged),
			},
		})
	}
}

// finishLocked moves a job to a terminal state exactly once. A job
// still sitting in the queue (expired before dispatch) is removed from
// the heap so it neither occupies a slot's pop nor lingers in memory.
func (r *Registry) finishLocked(j *job, state State, a *thermflow.Answer, cached bool, err error) {
	if j.state.Terminal() {
		return
	}
	was := j.state
	switch j.state {
	case StateQueued:
		r.ownerDeltaLocked(j.owner, -1, 0)
	case StateRunning:
		r.ownerDeltaLocked(j.owner, 0, -1)
	}
	if j.qidx >= 0 {
		heap.Remove(&r.queue, j.qidx)
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.cancel != nil {
		j.cancel() // stops the compile of a job that expired running
		j.cancel = nil
	}
	j.state = state
	j.cjob = thermflow.CompileJob{}
	j.answer = a
	j.cached = cached
	j.err = err
	j.finished = r.clock()
	switch was {
	case StateQueued:
		// Never dispatched: the whole life was queue wait.
		r.recordQueuedLocked(j, j.finished, string(state))
	case StateRunning:
		r.recordRunLocked(j, state)
	}
	r.terminal = append(r.terminal, j)
	close(j.done)
}

// recordQueuedLocked records the job.queued span — the time between
// submit and dispatch (or a terminal outcome reached while still
// queued: shed, expired). It also mints the queue/run span IDs so
// later phases parent correctly. No-op for untraced jobs.
func (r *Registry) recordQueuedLocked(j *job, end time.Time, outcome string) {
	if !j.tr.Valid() || r.trace == nil || j.queueSpan != "" {
		return
	}
	j.queueSpan = trace.NewSpanID()
	j.runSpan = trace.NewSpanID()
	r.trace.Record(j.id, trace.Span{
		TraceID: j.tr.TraceID, SpanID: j.queueSpan, Parent: j.tr.SpanID,
		Name: "job.queued", Start: j.submitted, Duration: end.Sub(j.submitted),
		Attrs: map[string]string{"outcome": outcome, "priority": fmt.Sprintf("%d", j.priority)},
	})
}

// recordRunLocked records the job.run span covering dispatch to
// terminal, tagged with the terminal state and whether the result came
// from cache.
func (r *Registry) recordRunLocked(j *job, state State) {
	if !j.tr.Valid() || r.trace == nil || j.runSpan == "" {
		return
	}
	cache := "compute"
	if j.cached {
		cache = "hit"
	}
	r.trace.Record(j.id, trace.Span{
		TraceID: j.tr.TraceID, SpanID: j.runSpan, Parent: j.queueSpan,
		Name: "job.run", Start: j.started, Duration: j.finished.Sub(j.started),
		Attrs: map[string]string{"state": string(state), "cache": cache},
	})
}

// refreshLocked expires a queued or running job whose deadline has
// come — its timer and the polling paths (Get, Submit dedup, Wait
// wake-up) call it, so the expiry shows even while the job sits in a
// saturated queue. Expiring a running job cancels its compile; the
// compile's return finds the job terminal and leaves it be.
func (r *Registry) refreshLocked(j *job, now time.Time) {
	if j.state.Terminal() || j.deadline.IsZero() || now.Before(j.deadline) {
		return
	}
	r.finishLocked(j, StateExpired, nil, false,
		fmt.Errorf("deadline passed in state %s: %w", j.state, context.DeadlineExceeded))
}

// pruneLocked drops terminal jobs past the retention TTL.
func (r *Registry) pruneLocked(now time.Time) {
	cutoff := now.Add(-r.ttl)
	for len(r.terminal) > 0 {
		j := r.terminal[0]
		if j.finished.After(cutoff) {
			break
		}
		r.terminal = r.terminal[1:]
		if r.jobs[j.id] == j {
			delete(r.jobs, j.id)
		}
	}
}

// evictOldestTerminalLocked force-drops the oldest terminal job to
// make room; false when none exists.
func (r *Registry) evictOldestTerminalLocked() bool {
	if len(r.terminal) == 0 {
		return false
	}
	j := r.terminal[0]
	r.terminal = r.terminal[1:]
	if r.jobs[j.id] == j {
		delete(r.jobs, j.id)
	}
	return true
}

// Stats summarizes the registry's current contents.
type Stats struct {
	// Queued, Running and Terminal count retained jobs by lifecycle
	// group; Capacity echoes MaxJobs and Concurrency the run bound.
	Queued, Running, Terminal int
	Capacity, Concurrency     int
	// MaxQueue and Watermark echo the admission-control bounds
	// (0 = admission control off).
	MaxQueue, Watermark int
	// Shed counts every admission-control rejection and displacement
	// since start; ShedByClass attributes them by tenant class
	// ("none" for classless submits).
	Shed        int64
	ShedByClass map[string]int64
}

// Stats snapshots the registry. Counts derive from job states alone,
// not the dispatcher's slot counter: a running job that refreshLocked
// expired is Terminal by state while its run() has yet to
// return and release the slot, and counting the slot would make
// Queued+Running+Terminal exceed the retained jobs.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.clock())
	st := Stats{
		Capacity: r.max, Concurrency: r.conc,
		MaxQueue: r.maxQueue, Watermark: r.watermark,
		Shed: r.shed, ShedByClass: make(map[string]int64, len(r.shedByClass)),
	}
	for class, n := range r.shedByClass {
		st.ShedByClass[class] = n
	}
	for _, j := range r.jobs {
		switch {
		case j.state == StateQueued:
			st.Queued++
		case j.state == StateRunning:
			st.Running++
		case j.state.Terminal():
			st.Terminal++
		}
	}
	return st
}

func snapshotOf(j *job) Snapshot {
	return Snapshot{
		ID: j.id, State: j.state, Priority: j.priority, Deadline: j.deadline,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Cached: j.cached, Answer: j.answer, Err: j.err,
	}
}

// jobQueue is a max-heap by effective priority, FIFO within a rank.
// Boosts are only ever rewritten by ageLocked, which re-establishes
// the heap invariant itself.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if pa, pb := q[a].effective(), q[b].effective(); pa != pb {
		return pa > pb
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].qidx, q[b].qidx = a, b
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.qidx = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	j := old[len(old)-1]
	old[len(old)-1] = nil
	j.qidx = -1
	*q = old[:len(old)-1]
	return j
}
