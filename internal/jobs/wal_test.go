package jobs

import (
	"context"
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

func fastSpec(t *testing.T, i int) thermflow.JobSpec {
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
func TestReplayPropertyRandomCrashPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 3; round++ {
		dirs := newDurableDirs(t)
		// A small snapshot cadence exercises snapshot-and-truncate
		// mid-workload, so replay folds snapshot state plus a record
		// suffix, not records alone.
		r1, l1 := dirs.open(t, Config{Concurrency: 2, SnapshotEvery: 4})

		n := 4 + rng.Intn(4)
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			var spec thermflow.JobSpec
			if rng.Intn(2) == 0 {
				spec = fastSpec(t, 100*round+i)
			} else {
				spec = slowSpec(t, 100*round+i)
			}
			snap, _, err := r1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = snap.ID
		}
		// Force a random subset terminal before the crash.
		for _, i := range rng.Perm(n)[:rng.Intn(n+1)] {
			waitDone(t, r1, ids[i])
		}
		preCrash := make(map[string]Snapshot, n)
		for _, id := range ids {
			snap, err := r1.Get(id)
			if err != nil {
				t.Fatalf("round %d: pre-crash Get(%s): %v", round, id, err)
			}
			preCrash[id] = snap
		}
		crash(r1, l1)

		r2, l2 := dirs.open(t, Config{Concurrency: 2})
		for _, id := range ids {
			snap, err := r2.Get(id)
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
		for _, id := range ids {
			if snap := waitDone(t, r2, id); snap.State != StateDone {
				t.Fatalf("round %d: job %s converged to %s (%v)", round, id, snap.State, snap.Err)
			}
		}
		crash(r2, l2)
	}
}

// A torn final record — the bytes a crash mid-write leaves behind — is
// discarded on replay, never fatal, and costs at most that one
// transition: the job re-runs instead of resolving terminally.
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
	for _, id := range ids {
		if _, err := r2.Get(id); err != nil {
			t.Fatalf("job %s lost to a torn tail: %v", id, err)
		}
		// The job whose finish record was torn replays as queued and
		// recomputes; content addressing converges it on the same done
		// result either way.
		if snap := waitDone(t, r2, id); snap.State != StateDone {
			t.Fatalf("job %s after torn-tail replay: %s (%v)", id, snap.State, snap.Err)
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
