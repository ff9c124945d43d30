package batch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderAndIsolation(t *testing.T) {
	r := NewRunner(4)
	boom := errors.New("boom")
	jobs := []Job{
		{Fn: func(context.Context) (any, error) { return 1, nil }},
		{Fn: func(context.Context) (any, error) { return nil, boom }},
		{Fn: func(context.Context) (any, error) { panic("kaboom") }},
		{Fn: func(context.Context) (any, error) { return 4, nil }},
	}
	res := r.Run(context.Background(), jobs)
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Value != 1 || res[0].Err != nil {
		t.Errorf("job 0: %+v", res[0])
	}
	if !errors.Is(res[1].Err, boom) {
		t.Errorf("job 1 error: %v", res[1].Err)
	}
	if res[2].Err == nil || res[2].Value != nil {
		t.Errorf("job 2 should have failed with the recovered panic: %+v", res[2])
	}
	if res[3].Value != 4 || res[3].Err != nil {
		t.Errorf("job 3: %+v", res[3])
	}
	if s := r.Stats(); s.Panics != 1 {
		t.Errorf("panics = %d, want 1", s.Panics)
	}
}

func TestCacheSharesEqualKeys(t *testing.T) {
	r := NewRunner(8)
	var calls atomic.Int64
	mk := func(key string) Job {
		return Job{Key: key, Fn: func(context.Context) (any, error) {
			calls.Add(1)
			return key, nil
		}}
	}
	jobs := make([]Job, 0, 16)
	for i := 0; i < 16; i++ {
		jobs = append(jobs, mk(fmt.Sprintf("k%d", i%4)))
	}
	res := r.Run(context.Background(), jobs)
	for i, rr := range res {
		if rr.Err != nil || rr.Value != fmt.Sprintf("k%d", i%4) {
			t.Fatalf("job %d: %+v", i, rr)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("distinct keys computed %d times, want 4", got)
	}
	// A second Run is served entirely from cache.
	calls.Store(0)
	r.Run(context.Background(), jobs[:4])
	if got := calls.Load(); got != 0 {
		t.Errorf("second run recomputed %d jobs", got)
	}
	s := r.Stats()
	if s.Misses != 4 || s.Hits != 16 {
		t.Errorf("stats = %+v, want 4 misses / 16 hits", s)
	}
}

func TestErrorsAreCachedButCancellationIsNot(t *testing.T) {
	r := NewRunner(2)
	var calls atomic.Int64
	fail := Job{Key: "fail", Fn: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("deterministic failure")
	}}
	r.Run(context.Background(), []Job{fail})
	r.Run(context.Background(), []Job{fail})
	if got := calls.Load(); got != 1 {
		t.Errorf("deterministic failure recomputed: %d calls", got)
	}

	// A job that fails because its context was cancelled must be
	// retried by a later Run.
	calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	slow := Job{Key: "slow", Fn: func(c context.Context) (any, error) {
		calls.Add(1)
		cancel()
		<-c.Done()
		return nil, c.Err()
	}}
	res := r.Run(ctx, []Job{slow})
	if res[0].Err == nil {
		t.Fatal("cancelled job reported success")
	}
	res = r.Run(context.Background(), []Job{{Key: "slow", Fn: func(context.Context) (any, error) {
		calls.Add(1)
		return "ok", nil
	}}})
	if res[0].Err != nil || res[0].Value != "ok" {
		t.Errorf("retry after cancellation: %+v", res[0])
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2 (original + retry)", got)
	}
}

// A waiter on an in-flight key whose computer gets cancelled must
// retry under its own live context, not inherit the foreign
// cancellation.
func TestWaiterRetriesAfterComputerCancelled(t *testing.T) {
	r := NewRunner(2)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	started := make(chan struct{})
	resB := make(chan Result, 1)

	go func() {
		r.Run(ctxA, []Job{{Key: "k", Fn: func(c context.Context) (any, error) {
			close(started)
			<-c.Done()
			return nil, c.Err()
		}}})
	}()
	<-started
	go func() {
		res := r.Run(context.Background(), []Job{{Key: "k", Fn: func(context.Context) (any, error) {
			return "ok", nil
		}}})
		resB <- res[0]
	}()
	time.Sleep(10 * time.Millisecond) // let B reach the in-flight entry
	cancelA()
	select {
	case got := <-resB:
		if got.Err != nil || got.Value != "ok" {
			t.Fatalf("waiter inherited the computer's cancellation: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
}

func TestCancellationSkipsPendingJobs(t *testing.T) {
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{
		{Fn: func(context.Context) (any, error) { cancel(); return "ran", nil }},
		{Fn: func(context.Context) (any, error) { return "should not run", nil }},
		{Fn: func(context.Context) (any, error) { return "nor this", nil }},
	}
	res := r.Run(ctx, jobs)
	if res[0].Err != nil || res[0].Value != "ran" {
		t.Errorf("job 0: %+v", res[0])
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(res[i].Err, context.Canceled) {
			t.Errorf("job %d should have been skipped with context.Canceled, got %+v", i, res[i])
		}
	}
}

func TestWorkersActuallyRunConcurrently(t *testing.T) {
	r := NewRunner(4)
	var peak, cur atomic.Int64
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Fn: func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	}
	r.Run(context.Background(), jobs)
	if p := peak.Load(); p < 2 {
		t.Errorf("observed concurrency %d, want >= 2", p)
	}
}

func TestResetCacheZeroesStats(t *testing.T) {
	r := NewRunner(1)
	job := Job{Key: "a", Fn: func(context.Context) (any, error) { return 1, nil }}
	r.Run(context.Background(), []Job{job})
	r.Run(context.Background(), []Job{job})
	if s := r.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats before reset = %+v", s)
	}
	r.ResetCache()
	if s := r.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v, want zero", s)
	}
	out := r.Run(context.Background(), []Job{job})
	if out[0].Cached {
		t.Error("result cached across ResetCache")
	}
}

func TestPanicErrorIsTyped(t *testing.T) {
	r := NewRunner(1)
	out := r.Run(context.Background(), []Job{
		{Fn: func(context.Context) (any, error) { panic("boom") }},
	})
	var pe *PanicError
	if !errors.As(out[0].Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", out[0].Err)
	}
	if pe.Val != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %+v", pe)
	}
}
