package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thermflow"
	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
	"thermflow/internal/joblog"
	"thermflow/internal/trace"
)

// durableDirs are the two directories a durable registry survives on:
// the content-addressed result store and the job log. A "restart"
// opens fresh objects over the same directories; a "crash" closes the
// log mid-flight (freezing the WAL exactly as a dead process would
// leave it) without any orderly shutdown.
type durableDirs struct {
	cache, log string
}

func newDurableDirs(t *testing.T) durableDirs {
	t.Helper()
	base := t.TempDir()
	return durableDirs{cache: filepath.Join(base, "cache"), log: filepath.Join(base, "joblog")}
}

// open builds a registry over the dirs, replaying whatever a previous
// incarnation left behind.
func (d durableDirs) open(t *testing.T, cfg Config) (*Registry, *joblog.Log) {
	t.Helper()
	b, err := NewEngine(2, cachestore.Config{Dir: d.cache})
	if err != nil {
		t.Fatal(err)
	}
	l, rec, err := joblog.Open(d.log, joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Log = l
	cfg.Recovery = &rec
	return New(b, cfg), l
}

// crash freezes the WAL (appends from the abandoned registry start
// failing, as they would with the process dead) and cancels its
// running jobs so the test machine quiets down.
func crash(r *Registry, l *joblog.Log) {
	l.Close()
	r.Close()
}

func fastSpec(t testing.TB, i int) thermflow.JobSpec {
	// NumRegs stays within the default floorplan; Delta keeps large
	// indices content-distinct anyway.
	return kernelSpec(t, "dot", thermflow.Options{
		NumRegs: 8 + i%32, Delta: 0.001 + float64(i)*1e-6, SkipAnalysis: true,
	})
}

func waitDone(t *testing.T, r *Registry, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := r.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting on %s: %v", id, err)
	}
	return snap
}

// A restarted registry re-answers every job the dead one answered:
// terminal done jobs re-materialize their results from the disk tier.
func TestReplayRestoresTerminalResults(t *testing.T) {
	dirs := newDurableDirs(t)
	r1, l1 := dirs.open(t, Config{})

	var ids []string
	for i := 0; i < 3; i++ {
		snap, _, err := r1.Submit(fastSpec(t, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		if snap := waitDone(t, r1, id); snap.State != StateDone {
			t.Fatalf("pre-crash job %s: %+v", id, snap)
		}
	}
	crash(r1, l1)

	r2, l2 := dirs.open(t, Config{})
	defer crash(r2, l2)
	for _, id := range ids {
		snap, err := r2.Get(id)
		if err != nil {
			t.Fatalf("job %s vanished across restart: %v", id, err)
		}
		if snap.State != StateDone || snap.Answer == nil {
			t.Fatalf("replayed job %s: state %s, answer %v", id, snap.State, snap.Answer != nil)
		}
		if !snap.Cached {
			t.Errorf("replayed job %s not marked cached (it was served from the store)", id)
		}
	}
	if st := r2.Stats(); st.Terminal != len(ids) {
		t.Fatalf("replayed stats %+v, want %d terminal", st, len(ids))
	}
}

// A job registered over an expired one under the same ID is what the
// log replays, not the expired one it replaced.
func TestReplayKeepsJobRegisteredOverExpiredOne(t *testing.T) {
	dirs := newDurableDirs(t)
	clk := newFakeClock()
	r1, l1 := dirs.open(t, Config{Concurrency: 1, Clock: clk.Now})

	if _, _, err := r1.Submit(slowSpec(t, 0)); err != nil { // holds the only slot
		t.Fatal(err)
	}
	spec := fastSpec(t, 0)
	hasty := spec
	hasty.Deadline = 10 * time.Millisecond
	first, _, err := r1.Submit(hasty)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Millisecond)
	if got, _ := r1.Get(first.ID); got.State != StateExpired {
		t.Fatalf("deadlined job: %+v, want expired", got)
	}
	if _, created, err := r1.Submit(spec); err != nil || !created {
		t.Fatalf("resubmit after expiry: created=%v, %v", created, err)
	}
	if snap := waitDone(t, r1, first.ID); snap.State != StateDone {
		t.Fatalf("fresh job: %+v", snap)
	}
	crash(r1, l1)

	r2, l2 := dirs.open(t, Config{Clock: clk.Now})
	defer crash(r2, l2)
	got, err := r2.Get(first.ID)
	if err != nil || got.State != StateDone || got.Answer == nil {
		t.Fatalf("replayed job: %+v, %v; want the fresh job, done", got, err)
	}
}

// Jobs that were queued or running when the process died re-enter the
// queue on replay and run to completion.
func TestReplayRequeuesLiveJobs(t *testing.T) {
	dirs := newDurableDirs(t)
	r1, l1 := dirs.open(t, Config{Concurrency: 1})

	var ids []string
	for i := 0; i < 3; i++ {
		snap, _, err := r1.Submit(slowSpec(t, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	// One running (concurrency 1), two queued. Crash now.
	crash(r1, l1)

	r2, l2 := dirs.open(t, Config{Concurrency: 2})
	defer crash(r2, l2)
	for _, id := range ids {
		if _, err := r2.Get(id); err != nil {
			t.Fatalf("live job %s vanished across restart: %v", id, err)
		}
	}
	for _, id := range ids {
		if snap := waitDone(t, r2, id); snap.State != StateDone {
			t.Fatalf("requeued job %s finished as %s (%v)", id, snap.State, snap.Err)
		}
	}
}

// Property: crash at a random point in a random workload, replay, and
// (a) every submitted ID still resolves, (b) every job observed
// terminal before the crash replays with the same state and a result,
// (c) everything else converges to done.
//
// Each round crashes twice. The first replay compacts the log into a
// snapshot, and the second crash comes after more submits, so the
// second replay folds a snapshot plus a record suffix, not records
// alone.
func TestReplayPropertyRandomCrashPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 3; round++ {
		dirs := newDurableDirs(t)
		r, l := dirs.open(t, Config{Concurrency: 2})
		var ids []string
		for life := 0; life < 2; life++ {
			n := 4 + rng.Intn(4)
			for i := 0; i < n; i++ {
				k := 100*round + 10*life + i
				var spec thermflow.JobSpec
				if rng.Intn(2) == 0 {
					spec = fastSpec(t, k)
				} else {
					spec = slowSpec(t, k)
				}
				snap, _, err := r.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, snap.ID)
			}
			// Force a random subset terminal before the crash.
			for _, i := range rng.Perm(len(ids))[:rng.Intn(len(ids)+1)] {
				waitDone(t, r, ids[i])
			}
			preCrash := make(map[string]Snapshot, len(ids))
			for _, id := range ids {
				snap, err := r.Get(id)
				if err != nil {
					t.Fatalf("round %d: pre-crash Get(%s): %v", round, id, err)
				}
				preCrash[id] = snap
			}
			crash(r, l)

			if life == 1 {
				peek, rec, err := joblog.Open(dirs.log, joblog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				peek.Close()
				if rec.Snapshot == nil || len(rec.Records) == 0 {
					t.Fatalf("round %d: second replay reads snapshot %v and %d records, want both",
						round, rec.Snapshot != nil, len(rec.Records))
				}
			}
			r, l = dirs.open(t, Config{Concurrency: 2})
			for _, id := range ids {
				snap, err := r.Get(id)
				if err != nil {
					t.Fatalf("round %d: job %s vanished across restart: %v", round, id, err)
				}
				if pre := preCrash[id]; pre.State.Terminal() {
					if snap.State != pre.State {
						t.Fatalf("round %d: job %s replayed as %s, was %s pre-crash",
							round, id, snap.State, pre.State)
					}
					if pre.State == StateDone && snap.Answer == nil {
						t.Fatalf("round %d: done job %s replayed without a result", round, id)
					}
				}
			}
		}
		for _, id := range ids {
			if snap := waitDone(t, r, id); snap.State != StateDone {
				t.Fatalf("round %d: job %s converged to %s (%v)", round, id, snap.State, snap.Err)
			}
		}
		crash(r, l)
	}
}

// A torn final record — the bytes a crash mid-write leaves behind — is
// discarded on replay, never fatal, and costs at most that one submit.
// The torn job is unknown after the restart: a submit record is written
// before the submit is answered, so in a real crash that submit was
// never acknowledged. Submitting it again answers from the store.
func TestReplayTornTailDiscarded(t *testing.T) {
	dirs := newDurableDirs(t)
	r1, l1 := dirs.open(t, Config{})
	var ids []string
	for i := 0; i < 2; i++ {
		snap, _, err := r1.Submit(fastSpec(t, 10+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		waitDone(t, r1, snap.ID)
	}
	crash(r1, l1)

	// Tear the WAL tail mid-record.
	walPath := filepath.Join(dirs.log, "wal.tfj")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o666); err != nil {
		t.Fatal(err)
	}
	lCheck, rec, err := joblog.Open(dirs.log, joblog.Options{})
	if err != nil {
		t.Fatalf("torn registry WAL must open: %v", err)
	}
	if rec.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	lCheck.Close()

	r2, l2 := dirs.open(t, Config{})
	defer crash(r2, l2)
	if snap, err := r2.Get(ids[0]); err != nil || snap.State != StateDone {
		t.Fatalf("job before the torn record: %+v, %v; want done", snap, err)
	}
	if _, err := r2.Get(ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job of the torn record: %v, want ErrNotFound", err)
	}
	if _, created, err := r2.Submit(fastSpec(t, 11)); err != nil || !created {
		t.Fatalf("resubmit of the torn job: created=%v, %v", created, err)
	}
	if snap := waitDone(t, r2, ids[1]); snap.State != StateDone || !snap.Cached {
		t.Fatalf("resubmitted torn job: %s, cached %v (%v); want done from the store",
			snap.State, snap.Cached, snap.Err)
	}
}

// An orderly shutdown fails the jobs it interrupts, but the log keeps
// only their submits, so a restart runs them again: Close cancels the
// running job and the queued one behind it, both end failed before the
// log closes, and after replay both run to done.
func TestReplayRerunsJobsCancelledByClose(t *testing.T) {
	dirs := newDurableDirs(t)
	r1, l1 := dirs.open(t, Config{Concurrency: 1})
	var ids []string
	for i, want := range []State{StateRunning, StateQueued} {
		snap, _, err := r1.Submit(heavySpec(t, 30+i))
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != want {
			t.Fatalf("job %d: %s, want %s", i, snap.State, want)
		}
		ids = append(ids, snap.ID)
	}
	r1.Close()
	for _, id := range ids {
		if snap := waitDone(t, r1, id); snap.State != StateFailed {
			t.Fatalf("job cancelled by Close: %s (%v), want failed", snap.State, snap.Err)
		}
	}
	l1.Close()

	r2, l2 := dirs.open(t, Config{Concurrency: 2})
	defer crash(r2, l2)
	for _, id := range ids {
		if snap := waitDone(t, r2, id); snap.State != StateDone {
			t.Fatalf("replayed job: %s (%v), want done", snap.State, snap.Err)
		}
	}
}

// earlierRecord is the payload of every record type (1 submit,
// 2 start, 3 finish) and the snapshot entry of the release whose log
// recorded each job's lifecycle.
type earlierRecord struct {
	ID          string          `json:"id"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	State       State           `json:"state"`
	Cached      bool            `json:"cached,omitempty"`
	Err         string          `json:"error,omitempty"`
	SubmittedNS int64           `json:"submitted_ns,omitempty"`
	StartedNS   int64           `json:"started_ns,omitempty"`
	FinishedNS  int64           `json:"finished_ns,omitempty"`
}

// A log written in the earlier lifecycle format replays by the same
// rule: its start and finish records and the snapshot's states are
// skipped, a done job whose answer is in the disk tier answers done and
// cached, and a job that was running or had failed runs again.
func TestReplayReadsLifecycleLog(t *testing.T) {
	dirs := newDurableDirs(t)
	doneSpec, runningSpec, failedSpec := fastSpec(t, 40), fastSpec(t, 41), fastSpec(t, 42)
	eng, err := NewEngine(1, cachestore.Config{Dir: dirs.cache})
	if err != nil {
		t.Fatal(err)
	}
	warm := New(eng, Config{})
	h, _, err := warm.SubmitTraced(doneSpec, Limits{}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := h.Wait(context.Background()); err != nil || snap.State != StateDone {
		t.Fatalf("warming the disk tier: %+v, %v", snap, err)
	}
	warm.Close()

	rec := func(spec thermflow.JobSpec, state State) earlierRecord {
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return earlierRecord{ID: id, Spec: raw, State: state, SubmittedNS: time.Now().UnixNano()}
	}
	done, running, failed := rec(doneSpec, StateRunning), rec(runningSpec, StateQueued), rec(failedSpec, StateFailed)
	done.StartedNS = time.Now().UnixNano()
	failed.Cached, failed.Err = true, "jobs: displaced by higher-priority work at queue depth 4: shed under queue pressure"
	failed.FinishedNS = time.Now().UnixNano()

	l, _, err := joblog.Open(dirs.log, joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := l.Snapshot(mustJSON([]earlierRecord{failed, done})); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		typ uint32
		p   earlierRecord
	}{
		{3, earlierRecord{ID: done.ID, State: StateDone, FinishedNS: time.Now().UnixNano()}},
		{1, running},
		{2, earlierRecord{ID: running.ID, State: StateRunning, StartedNS: time.Now().UnixNano()}},
	} {
		if err := l.Append(r.typ, mustJSON(r.p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	r, l2 := dirs.open(t, Config{})
	defer crash(r, l2)
	if snap, err := r.Get(done.ID); err != nil || snap.State != StateDone || !snap.Cached || snap.Answer == nil {
		t.Fatalf("done job: %+v, %v; want done and cached", snap, err)
	}
	for _, id := range []string{running.ID, failed.ID} {
		if snap := waitDone(t, r, id); snap.State != StateDone {
			t.Fatalf("job %s: %s (%v), want it run again to done", id, snap.State, snap.Err)
		}
	}
}

// Stats derives Running from job states, so a running job that the
// poll path lazily expired (terminal by state, engine slot not yet
// released) is counted once: Queued+Running+Terminal equals the
// retained jobs, and Running excludes the zombie slot.
func TestStatsExcludesLazilyExpiredRunningSlot(t *testing.T) {
	clk := newFakeClock()
	r := New(batch.NewRunner(1), Config{Concurrency: 1, Clock: clk.Now})
	defer r.Close()
	snap, _, err := r.Submit(slowSpec(t, 50))
	if err != nil {
		t.Fatal(err)
	}

	r.mu.Lock()
	j := r.jobs[snap.ID]
	// Force the expired-while-running shape deterministically:
	// finalize exactly as refreshLocked would for a passed deadline,
	// while run() still holds the slot.
	if j.state != StateRunning {
		r.mu.Unlock()
		t.Fatalf("job not dispatched: %s", j.state)
	}
	r.finishLocked(j, StateExpired, nil, false,
		fmt.Errorf("deadline passed in state %s: %w", j.state, context.DeadlineExceeded))
	if !j.state.Terminal() {
		r.mu.Unlock()
		t.Fatalf("finish did not expire the job: %s", j.state)
	}
	r.mu.Unlock()

	st := r.Stats()
	if st.Running != 0 {
		t.Fatalf("Stats counts %d running; the only job is terminal", st.Running)
	}
	if total := st.Queued + st.Running + st.Terminal; total != 1 {
		t.Fatalf("Queued+Running+Terminal = %d with 1 retained job", total)
	}
}

type fakeTimer struct{ stopped bool }

func (ft *fakeTimer) Stop() bool { ft.stopped = true; return true }

// Deadline timers go through Config.AfterFunc: with a fake clock and a
// fake timer factory, a deadline wait fires on Advance plus an
// explicit tick — no wall-clock timer, no real-time slack — and a
// deadline already in the past never arms a timer at all.
func TestDeadlineTimersThroughInjectedFactory(t *testing.T) {
	clk := newFakeClock()
	var mu sync.Mutex
	var armed []time.Duration
	var fire func()
	after := func(d time.Duration, f func()) Timer {
		mu.Lock()
		defer mu.Unlock()
		if d <= 0 {
			t.Errorf("timer armed with non-positive duration %v", d)
		}
		armed = append(armed, d)
		fire = f
		return &fakeTimer{}
	}
	r := New(batch.NewRunner(1), Config{Concurrency: 1, Clock: clk.Now, AfterFunc: after})
	defer r.Close()

	// Occupy the only slot so the deadlined job stays queued — there
	// the expiry timer is the only thing that can wake a waiter.
	if _, _, err := r.Submit(slowSpec(t, 60)); err != nil {
		t.Fatal(err)
	}
	spec := slowSpec(t, 61)
	spec.Deadline = 5 * time.Second
	snap, _, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan Snapshot, 1)
	go func() {
		s, _ := r.Wait(context.Background(), snap.ID)
		got <- s
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(armed)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Wait never armed a deadline timer through AfterFunc")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if armed[0] != 5*time.Second {
		t.Fatalf("timer armed for %v, want the full 5s to the deadline", armed[0])
	}
	f := fire
	mu.Unlock()

	clk.Advance(10 * time.Second)
	f()
	if s := <-got; s.State != StateExpired {
		t.Fatalf("deadlined job woke as %s, want expired", s.State)
	}

	// A deadline already passed at Wait time expires inline; no timer.
	spec2 := slowSpec(t, 62)
	spec2.Deadline = time.Second
	snap2, _, err := r.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	s2, err := r.Wait(context.Background(), snap2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s2.State != StateExpired {
		t.Fatalf("past-deadline job state %s, want expired", s2.State)
	}
	mu.Lock()
	if len(armed) != 1 {
		t.Fatalf("past-deadline wait armed a timer: %v", armed)
	}
	mu.Unlock()
}

// Replay restores tenant accounting: jobs requeued across a restart
// still count toward their owner's queue quota, so a tenant cannot
// launder its backlog through a backend crash.
func TestReplayRestoresOwnerAccounting(t *testing.T) {
	dirs := newDurableDirs(t)
	r1, l1 := dirs.open(t, Config{Concurrency: 1})

	acme := Limits{Owner: "acme", Class: "standard", MaxQueued: 5}
	for i := 0; i < 3; i++ {
		if _, _, err := r1.SubmitLimited(heavySpec(t, 10+i), acme); err != nil {
			t.Fatal(err)
		}
	}
	// One running, two queued under acme. Crash now.
	crash(r1, l1)

	r2, l2 := dirs.open(t, Config{Concurrency: 1})
	defer crash(r2, l2)
	// The replayed registry re-dispatched one job and requeued two, so
	// acme sits at 2 queued: a cap of 2 refuses the next submit.
	_, _, err := r2.SubmitLimited(heavySpec(t, 20), Limits{Owner: "acme", MaxQueued: 2})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("post-replay submit under restored accounting: %v, want ErrQuota", err)
	}
	// The cap is acme's alone: another tenant enters freely.
	if _, _, err := r2.SubmitLimited(heavySpec(t, 21), Limits{Owner: "rival", MaxQueued: 2}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRegistryDurability submits 1000 distinct fast jobs to a
// registry on a two-worker engine, then waits on every one, with no
// durable state, the job log, the disk tier, or both. Each iteration
// starts on fresh directories, made outside the timer.
func BenchmarkRegistryDurability(b *testing.B) {
	specs := make([]thermflow.JobSpec, 1000)
	for i := range specs {
		specs[i] = fastSpec(b, i)
	}
	for _, bc := range []struct {
		name      string
		log, disk bool
	}{{"none", false, false}, {"log", true, false}, {"disk", false, true}, {"log+disk", true, true}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				var store cachestore.Config
				if bc.disk {
					store.Dir = filepath.Join(dir, "cache")
				}
				eng, err := NewEngine(2, store)
				if err != nil {
					b.Fatal(err)
				}
				var cfg Config
				if bc.log {
					if cfg.Log, _, err = joblog.Open(filepath.Join(dir, "joblog"), joblog.Options{}); err != nil {
						b.Fatal(err)
					}
				}
				r := New(eng, cfg)
				handles := make([]Handle, len(specs))
				b.StartTimer()

				for k, spec := range specs {
					if handles[k], _, err = r.SubmitTraced(spec, Limits{}, trace.SpanContext{}); err != nil {
						b.Fatal(err)
					}
				}
				for _, h := range handles {
					if snap, err := h.Wait(context.Background()); err != nil || snap.State != StateDone {
						b.Fatalf("job %s: %s (%v, %v)", h.ID, snap.State, snap.Err, err)
					}
				}

				b.StopTimer()
				r.Close()
				if cfg.Log != nil {
					cfg.Log.Close()
				}
				b.StartTimer()
			}
		})
	}
}
