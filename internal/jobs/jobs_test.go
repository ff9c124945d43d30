package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"thermflow"
	"thermflow/internal/batch"
	"thermflow/internal/trace"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func kernelSpec(t testing.TB, name string, opts thermflow.Options) thermflow.JobSpec {
	t.Helper()
	spec, err := thermflow.JobSpecFromKernel(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// slowSpec compiles for tens of milliseconds: cold-start analysis at a
// tight δ, perturbed per call so no two share a cache key.
func slowSpec(t *testing.T, i int) thermflow.JobSpec {
	return kernelSpec(t, "matmul", thermflow.Options{
		NoWarmStart: true,
		Delta:       0.0002 + float64(i)*1e-6,
		MaxIter:     32768,
		Kappa:       1,
	})
}

// The core lifecycle: submit → queued/running → done with a result.
func TestSubmitPollDone(t *testing.T) {
	r := New(batch.NewRunner(2), Config{})
	defer r.Close()
	spec := kernelSpec(t, "dot", thermflow.Options{})

	snap, created, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first submit did not create the job")
	}
	if snap.ID == "" || snap.State.Terminal() {
		t.Fatalf("fresh job snapshot: %+v", snap)
	}
	wantID, _ := spec.ID()
	if snap.ID != wantID {
		t.Errorf("job ID %s, want spec ID %s", snap.ID, wantID)
	}

	final, err := r.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Answer == nil || final.Err != nil {
		t.Fatalf("final snapshot: %+v", final)
	}
	if !final.Answer.Converged {
		t.Error("result has no converged analysis")
	}

	// Polling after completion returns the same terminal state.
	got, err := r.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Answer != final.Answer {
		t.Errorf("Get after done: %+v", got)
	}
}

// Duplicate submits of the same spec converge on one job and one
// compilation; scheduling hints do not fork identity.
func TestDuplicateSubmitSameJob(t *testing.T) {
	b := batch.NewRunner(2)
	r := New(b, Config{})
	defer r.Close()
	spec := kernelSpec(t, "fir", thermflow.Options{Policy: thermflow.Chessboard})

	first, created, err := r.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: %v created=%v", err, created)
	}
	urgent := spec
	urgent.Priority = 99
	urgent.Deadline = time.Hour
	second, created, err := r.Submit(urgent)
	if err != nil {
		t.Fatal(err)
	}
	if created || second.ID != first.ID {
		t.Errorf("duplicate submit created a new job: %v / %s vs %s", created, second.ID, first.ID)
	}
	if _, err := r.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one compilation for both submits)", st.Misses)
	}
	// Submitting again after completion is a lookup, not a re-run.
	done, created, err := r.Submit(spec)
	if err != nil || created {
		t.Fatalf("post-completion submit: %v created=%v", err, created)
	}
	if done.State != StateDone || done.Answer == nil {
		t.Errorf("post-completion submit snapshot: %+v", done)
	}
}

// A compile failure is a failed job, isolated and reported.
func TestFailedJob(t *testing.T) {
	r := New(batch.NewRunner(1), Config{})
	defer r.Close()
	// 64 registers cannot fit a 2x2 grid: allocation fails fast.
	spec := kernelSpec(t, "dot", thermflow.Options{GridW: 2, GridH: 2})
	snap, _, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := r.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Err == nil || final.Answer != nil {
		t.Fatalf("final snapshot: %+v", final)
	}
	// A new submit of the spec runs it again (the engine's failure
	// cache answers it) rather than converging on the failure.
	again, created, err := r.Submit(spec)
	if err != nil || !created || again.ID != snap.ID {
		t.Fatalf("resubmit after failure: %+v created=%v, %v; want a fresh job", again, created, err)
	}
	if final, err := r.Wait(context.Background(), snap.ID); err != nil || final.State != StateFailed {
		t.Fatalf("resubmitted failing job: %+v, %v", final, err)
	}
}

// A job still queued when its deadline passes expires without running,
// and every polling path observes it.
func TestQueuedJobExpires(t *testing.T) {
	clk := newFakeClock()
	b := batch.NewRunner(1)
	r := New(b, Config{Concurrency: 1, Clock: clk.Now})
	defer r.Close()

	// Saturate the single slot.
	if _, _, err := r.Submit(slowSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	spec := kernelSpec(t, "dot", thermflow.Options{})
	spec.Deadline = 10 * time.Millisecond
	snap, _, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued {
		t.Fatalf("second job state %s, want queued", snap.State)
	}
	if snap.Deadline.IsZero() {
		t.Fatal("deadline not recorded")
	}

	clk.Advance(20 * time.Millisecond)
	got, err := r.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateExpired {
		t.Fatalf("state after deadline = %s, want expired", got.State)
	}
	if !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Errorf("expired error = %v, want DeadlineExceeded", got.Err)
	}
	// Wait on an already-expired job returns immediately.
	final, err := r.Wait(context.Background(), snap.ID)
	if err != nil || final.State != StateExpired {
		t.Fatalf("Wait on expired job: %+v, %v", final, err)
	}
	// The slow job is unaffected and still completes.
	slowID, _ := slowSpec(t, 0).ID()
	if s, err := r.Wait(context.Background(), slowID); err != nil || s.State != StateDone {
		t.Fatalf("occupying job: %+v, %v", s, err)
	}
	// The deadline belonged to that submit: a new submit of the spec
	// without one registers a fresh job under the same ID, which runs.
	spec.Deadline = 0
	again, created, err := r.Submit(spec)
	if err != nil || !created || again.ID != snap.ID || !again.Deadline.IsZero() {
		t.Fatalf("resubmit after expiry: %+v created=%v, %v; want a fresh job", again, created, err)
	}
	if s, err := r.Wait(context.Background(), snap.ID); err != nil || s.State != StateDone {
		t.Fatalf("resubmitted job: %+v, %v", s, err)
	}
}

// timerLog is a fake Config.AfterFunc that records every timer the
// registry arms; fireAll runs every callback, stopped or not, as a
// timer that fired just before its Stop would.
type timerLog struct {
	mu    sync.Mutex
	armed []time.Duration
	fns   []func()
}

func (l *timerLog) after(d time.Duration, f func()) Timer {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = append(l.armed, d)
	l.fns = append(l.fns, f)
	return &fakeTimer{}
}

func (l *timerLog) fireAll() {
	l.mu.Lock()
	fns := append([]func(){}, l.fns...)
	l.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// A submit that converges on a live job serves the later deadline of
// the two: one without a deadline keeps the job alive to done, queued
// or running, and a later submit with an earlier deadline does not
// shorten it. A running job's expiry is the registry's own timer, so
// the fake clock drives it.
func TestConvergingSubmitKeepsLaterDeadline(t *testing.T) {
	clk := newFakeClock()
	timers := &timerLog{}
	r := New(batch.NewRunner(1), Config{Concurrency: 1, Clock: clk.Now, AfterFunc: timers.after})
	defer r.Close()

	// Queued: another request's 10 ms deadline, then a submit with none.
	if _, _, err := r.Submit(slowSpec(t, 70)); err != nil {
		t.Fatal(err)
	}
	spec := kernelSpec(t, "dot", thermflow.Options{})
	spec.Deadline = 10 * time.Millisecond
	first, created, err := r.Submit(spec)
	if err != nil || !created || first.State != StateQueued {
		t.Fatalf("deadlined submit: %+v created=%v, %v; want a new queued job", first, created, err)
	}
	spec.Deadline = 0
	second, created, err := r.Submit(spec)
	if err != nil || created || second.ID != first.ID || !second.Deadline.IsZero() {
		t.Fatalf("submit without a deadline: %+v created=%v, %v; want the same job, deadline dropped",
			second, created, err)
	}
	clk.Advance(20 * time.Millisecond)
	timers.fireAll()
	if got, err := r.Get(first.ID); err != nil || got.State.Terminal() {
		t.Fatalf("queued job past the dropped deadline: %+v, %v; want still live", got, err)
	}
	if got, err := r.Wait(context.Background(), first.ID); err != nil || got.State != StateDone {
		t.Fatalf("queued job: %+v, %v; want done", got, err)
	}

	// Running: the heavy job dispatches at once with a 10 ms deadline.
	heavy := heavySpec(t, 70)
	heavy.Deadline = 10 * time.Millisecond
	run, _, err := r.Submit(heavy)
	if err != nil || run.State != StateRunning {
		t.Fatalf("heavy submit: %+v, %v; want running", run, err)
	}
	clk.Advance(5 * time.Millisecond)
	heavy.Deadline = time.Second
	later, _, err := r.Submit(heavy)
	if want := clk.Now().Add(time.Second); err != nil || !later.Deadline.Equal(want) {
		t.Fatalf("later deadline: %+v, %v; want deadline %v", later, err, want)
	}
	heavy.Deadline = 20 * time.Millisecond
	earlier, _, err := r.Submit(heavy)
	if err != nil || !earlier.Deadline.Equal(later.Deadline) {
		t.Fatalf("earlier deadline shortened the job: %v, want %v (%v)", earlier.Deadline, later.Deadline, err)
	}
	clk.Advance(25 * time.Millisecond)
	timers.fireAll()
	if got, _ := r.Get(run.ID); got.State == StateExpired {
		t.Fatalf("running job expired at an earlier submit's deadline: %v", got.Err)
	}
	heavy.Deadline = 0
	if none, _, err := r.Submit(heavy); err != nil || !none.Deadline.IsZero() {
		t.Fatalf("submit without a deadline: %+v, %v; want the deadline dropped", none, err)
	}
	clk.Advance(2 * time.Second)
	timers.fireAll()
	if got, err := r.Wait(context.Background(), run.ID); err != nil || got.State != StateDone {
		t.Fatalf("running job: state %s, error %v (%v); want done", got.State, got.Err, err)
	}
}

// Regression: DELETE /v2/cache while jobs are queued and
// running must not orphan their status entries — the registry keeps
// every job addressable and they all complete.
func TestCacheResetDoesNotOrphanJobs(t *testing.T) {
	b := batch.NewRunner(1)
	r := New(b, Config{Concurrency: 1})
	defer r.Close()

	ids := make([]string, 3)
	for i := range ids {
		snap, _, err := r.Submit(slowSpec(t, i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	// One running, two queued. Reset the result store mid-flight.
	if err := b.ResetCache(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := r.Get(id); err != nil {
			t.Fatalf("job %s orphaned by cache reset: %v", id, err)
		}
	}
	for _, id := range ids {
		snap, err := r.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StateDone || snap.Answer == nil {
			t.Fatalf("job %s after reset: %+v", id, snap)
		}
	}
}

// Higher priority runs first when a slot frees.
func TestPriorityOrdersQueue(t *testing.T) {
	r := New(batch.NewRunner(1), Config{Concurrency: 1})
	defer r.Close()

	if _, _, err := r.Submit(slowSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	low := kernelSpec(t, "dot", thermflow.Options{})
	lowSnap, _, err := r.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := kernelSpec(t, "fir", thermflow.Options{})
	high.Priority = 10
	highSnap, _, err := r.Submit(high)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	hs, err := r.Wait(ctx, highSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := r.Wait(ctx, lowSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hs.State != StateDone || ls.State != StateDone {
		t.Fatalf("states: high %s low %s", hs.State, ls.State)
	}
	if hs.Started.After(ls.Started) {
		t.Errorf("high-priority job started at %v, after low-priority %v", hs.Started, ls.Started)
	}
}

// Terminal jobs age out after the TTL; live jobs never do; at the
// capacity bound with only live jobs, Submit refuses.
func TestRetentionAndCapacity(t *testing.T) {
	clk := newFakeClock()
	r := New(batch.NewRunner(1), Config{Concurrency: 1, TTL: time.Minute, MaxJobs: 2, Clock: clk.Now})
	defer r.Close()

	quick := kernelSpec(t, "dot", thermflow.Options{})
	snap, _, err := r.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}

	// Past the TTL the terminal job is pruned on the next touch — a
	// plain Get on an otherwise idle registry is enough (regression:
	// retention used to be enforced only inside Submit).
	clk.Advance(2 * time.Minute)
	if _, err := r.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("terminal job survived the TTL: %v", err)
	}
	s2, _, err := r.Submit(slowSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Fill the registry with live jobs: the next submit is refused.
	if _, _, err := r.Submit(slowSpec(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Submit(slowSpec(t, 3)); !errors.Is(err, ErrBusy) {
		t.Errorf("submit over live capacity: %v, want ErrBusy", err)
	}
	// Refused work was not silently registered.
	if st := r.Stats(); st.Queued+st.Running != 2 {
		t.Errorf("stats after refusal: %+v", st)
	}
	if _, err := r.Wait(context.Background(), s2.ID); err != nil {
		t.Fatal(err)
	}
}

// Wait honours its context while the job keeps running.
func TestWaitContextCancellation(t *testing.T) {
	r := New(batch.NewRunner(1), Config{Concurrency: 1})
	defer r.Close()
	snap, _, err := r.Submit(slowSpec(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	got, err := r.Wait(ctx, snap.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under expired ctx: %+v, %v", got, err)
	}
	if got.State.Terminal() && got.State != StateDone {
		t.Errorf("snapshot corrupted by wait cancellation: %+v", got)
	}
	// The job is unaffected.
	final, err := r.Wait(context.Background(), snap.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("job after abandoned wait: %+v, %v", final, err)
	}
}

func TestUnknownJob(t *testing.T) {
	r := New(batch.NewRunner(1), Config{})
	defer r.Close()
	if _, err := r.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown: %v", err)
	}
	if _, err := r.Wait(context.Background(), "deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait unknown: %v", err)
	}
}

// A Handle waits on the job it was returned for, not on its ID: after
// retention evicted the finished job to make room, Wait by ID is
// ErrNotFound but the submitter's Handle still answers with the result.
func TestHandleWaitOutlivesEviction(t *testing.T) {
	r := New(batch.NewRunner(1), Config{Concurrency: 1, MaxJobs: 1})
	defer r.Close()

	h, created, err := r.SubmitTraced(kernelSpec(t, "dot", thermflow.Options{}), Limits{}, trace.SpanContext{})
	if err != nil || !created {
		t.Fatalf("submit: created %v, %v", created, err)
	}
	if _, err := r.Wait(context.Background(), h.ID); err != nil {
		t.Fatal(err)
	}
	// The registry holds one job: the next submit evicts the finished one.
	next, _, err := r.Submit(kernelSpec(t, "fir", thermflow.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background(), h.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait by evicted ID: %v, want ErrNotFound", err)
	}
	got, err := h.Wait(context.Background())
	if err != nil || got.ID != h.ID || got.State != StateDone || got.Answer == nil {
		t.Fatalf("Handle.Wait after eviction: %+v, %v; want the done job", got, err)
	}
	if _, err := r.Wait(context.Background(), next.ID); err != nil {
		t.Fatal(err)
	}
}

// heavySpec occupies a worker for long enough that admission tests can
// build queue state behind it without racing its completion.
func heavySpec(t *testing.T, i int) thermflow.JobSpec {
	return kernelSpec(t, "matmul", thermflow.Options{
		NoWarmStart: true,
		Delta:       0.00005 + float64(i)*1e-7,
		MaxIter:     1 << 17,
		Kappa:       1,
	})
}

// prioritySpec is a slow spec carrying a scheduling priority.
func prioritySpec(t *testing.T, i, priority int) thermflow.JobSpec {
	spec := slowSpec(t, 100+i)
	spec.Priority = priority
	return spec
}

// Admission control: below the watermark everything enters; from the
// watermark a submit must outrank queued work; at the hard cap it
// displaces a strictly lower-priority victim or is refused. Sheds are
// counted and attributed by tenant class.
func TestAdmissionWatermarkAndDisplacement(t *testing.T) {
	r := New(batch.NewRunner(1), Config{Concurrency: 1, MaxQueue: 4, QueueWatermark: 2})
	defer r.Close()

	// One heavy job holds the single slot; everything after it queues.
	if _, _, err := r.Submit(heavySpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // depth 0 and 1: below the watermark, free entry
		if _, _, err := r.Submit(prioritySpec(t, i, 5)); err != nil {
			t.Fatal(err)
		}
	}

	// Depth 2 = watermark: a submit that does not outrank queued work
	// sheds, attributed to its class.
	_, _, err := r.SubmitLimited(prioritySpec(t, 2, 0), Limits{Owner: "batchco", Class: "batch"})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority submit at watermark: %v, want ErrShed", err)
	}

	// Outranking submits pass the watermark band up to the cap.
	if _, _, err := r.Submit(prioritySpec(t, 3, 10)); err != nil {
		t.Fatal(err) // depth 3
	}
	victim, _, err := r.Submit(prioritySpec(t, 4, 5))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("same-rank submit in watermark band: %v, want ErrShed", err)
	}
	q2, _, err := r.Submit(prioritySpec(t, 5, 10))
	if err != nil {
		t.Fatal(err) // depth 4 = cap
	}
	_ = q2

	// At the cap, a higher-priority submit displaces the lowest queued
	// job (youngest within its priority), which fails with ErrShed.
	victimSnap, _, err := r.Submit(prioritySpec(t, 1, 5)) // dedup lookup of queued i=1
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Submit(prioritySpec(t, 6, 20)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(victimSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !errors.Is(got.Err, ErrShed) {
		t.Fatalf("displaced job: state %s err %v, want failed/ErrShed", got.State, got.Err)
	}

	// A submit that merely ties the lowest queued priority at the cap
	// is refused — displacement demands strict outranking.
	if _, _, err := r.Submit(prioritySpec(t, 7, 5)); !errors.Is(err, ErrShed) {
		t.Fatalf("tied-priority submit at cap: %v, want ErrShed", err)
	}

	st := r.Stats()
	if st.MaxQueue != 4 || st.Watermark != 2 {
		t.Errorf("stats bounds: %+v", st)
	}
	if st.Shed != 4 {
		t.Errorf("shed count %d, want 4 (two refusals, one band refusal, one displacement)", st.Shed)
	}
	if st.ShedByClass["batch"] != 1 || st.ShedByClass["none"] != 3 {
		t.Errorf("shed attribution: %v", st.ShedByClass)
	}

	// The displaced job does not answer a new submit of its spec: one
	// refused at the cap leaves its record as it was, and one that
	// outranks the queue registers a fresh job under its ID.
	if _, _, err := r.Submit(prioritySpec(t, 1, 5)); !errors.Is(err, ErrShed) {
		t.Fatalf("tied-priority resubmit of the displaced job: %v, want ErrShed", err)
	}
	if got, err := r.Get(victimSnap.ID); err != nil || got.State != StateFailed {
		t.Fatalf("displaced job after a refused resubmit: %+v, %v; want it still failed", got, err)
	}
	retry := prioritySpec(t, 1, 30)
	again, created, err := r.Submit(retry)
	if err != nil || !created || again.ID != victimSnap.ID || again.State != StateQueued {
		t.Fatalf("resubmit after displacement: %+v created=%v, %v; want a fresh queued job", again, created, err)
	}
	_ = victim
}

// A tenant over its own queued cap is refused with ErrQuota — its
// fault, not the pool's — while other tenants keep entering, and no
// pool shed is counted.
func TestTenantQueueQuota(t *testing.T) {
	r := New(batch.NewRunner(1), Config{Concurrency: 1})
	defer r.Close()

	if _, _, err := r.Submit(heavySpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	acme := Limits{Owner: "acme", Class: "standard", MaxQueued: 1}
	if _, _, err := r.SubmitLimited(prioritySpec(t, 10, 0), acme); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.SubmitLimited(prioritySpec(t, 11, 0), acme); !errors.Is(err, ErrQuota) {
		t.Fatalf("second queued submit: %v, want ErrQuota", err)
	}
	// A different tenant is untouched by acme's cap.
	if _, _, err := r.SubmitLimited(prioritySpec(t, 12, 0), Limits{Owner: "rival", MaxQueued: 1}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Shed != 0 {
		t.Errorf("quota refusal counted as pool shed: %+v", st)
	}
}

// An owner at its running cap is parked, not head-of-line blocking:
// later, lower-priority work from other tenants dispatches past it,
// and the parked job starts once the owner's slot frees.
func TestMaxRunningParksOwner(t *testing.T) {
	r := New(batch.NewRunner(2), Config{Concurrency: 2})
	defer r.Close()

	acme := Limits{Owner: "acme", MaxRunning: 1}
	first, _, err := r.SubmitLimited(heavySpec(t, 2), acme)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := r.SubmitLimited(prioritySpec(t, 20, 50), acme)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := r.SubmitLimited(prioritySpec(t, 21, 0), Limits{Owner: "rival"})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	os_, err := r.Wait(ctx, other.ID)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := r.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := r.Wait(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if os_.State != StateDone || fs.State != StateDone || ss.State != StateDone {
		t.Fatalf("states: other %s first %s second %s", os_.State, fs.State, ss.State)
	}
	// The rival's job started while acme's first still ran — the parked
	// acme job did not block the free slot despite outranking it.
	if !os_.Started.Before(fs.Finished) {
		t.Errorf("rival started %v, after acme's first finished %v (parked job blocked the slot)",
			os_.Started, fs.Finished)
	}
	// Acme's second waited for acme's own slot, not merely a pool slot.
	if ss.Started.Before(fs.Finished) {
		t.Errorf("acme's second started %v, before its first finished %v (run cap not enforced)",
			ss.Started, fs.Finished)
	}
}

// Priority aging: a low-class job at the back of a saturated queue
// stops being the displacement victim once it has waited. Without
// aging, the fresh high-priority submit at the cap displaces the
// low job (TestAdmissionWatermarkAndDisplacement's behavior) and the
// starving tenant never runs; with aging its effective rank has risen
// past the newcomer, the newcomer sheds instead, and the low job
// dispatches when the slot frees.
func TestPriorityAgingUnstarvesTenant(t *testing.T) {
	clk := newFakeClock()
	r := New(batch.NewRunner(1), Config{
		Concurrency: 1, MaxQueue: 2, QueueWatermark: 1,
		AgeStep: 5, AgePeriod: time.Minute, Clock: clk.Now,
	})
	defer r.Close()

	if _, _, err := r.Submit(heavySpec(t, 40)); err != nil { // holds the only slot
		t.Fatal(err)
	}
	low, _, err := r.SubmitLimited(prioritySpec(t, 41, 0), Limits{Owner: "nightly", Class: "batch"})
	if err != nil {
		t.Fatal(err) // depth 0, below the watermark: free entry
	}
	if _, _, err := r.SubmitLimited(prioritySpec(t, 42, 10), Limits{Owner: "trader", Class: "rt"}); err != nil {
		t.Fatal(err) // outranks the fresh low job at the watermark; queue now at cap
	}

	// Three periods later the low job's effective rank is 15. A fresh
	// P10 submit at the cap no longer strictly outranks it, so it is
	// refused — where the unaged registry would have displaced low.
	clk.Advance(3 * time.Minute)
	if _, _, err := r.SubmitLimited(prioritySpec(t, 43, 10), Limits{Owner: "trader", Class: "rt"}); !errors.Is(err, ErrShed) {
		t.Fatalf("fresh high-priority submit against aged queue: %v, want ErrShed", err)
	}
	got, err := r.Get(low.ID)
	if err != nil || got.State != StateQueued {
		t.Fatalf("aged low job after shed attempt: state %s err %v, want queued", got.State, err)
	}
	// The refusal is attributed to the newcomer's class, and the
	// snapshot still reports the submitted priority — aging never
	// rewrites the job, only its scheduling rank.
	if st := r.Stats(); st.ShedByClass["rt"] != 1 {
		t.Errorf("shed attribution: %v, want rt:1", st.ShedByClass)
	}
	if got.Priority != 0 {
		t.Errorf("snapshot priority %d, want the submitted 0", got.Priority)
	}

	// The slot frees, the queue drains, and the starving tenant's job
	// runs to completion instead of dying shed.
	final, err := r.Wait(context.Background(), low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Err != nil {
		t.Fatalf("aged low job finished %s (err %v), want done", final.State, final.Err)
	}
}
