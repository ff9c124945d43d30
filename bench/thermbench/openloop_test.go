package main

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when the single worker under test spends
// service time, so every timestamp the open loop takes is determined by
// the schedule and the service times alone.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(time.Time) {}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// One connection, arrivals every 10 ms, 30 ms of service each: arrival
// k waits 20·k ms for the connection, and its latency — measured from
// the due time — includes that wait.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const service = 30 * time.Millisecond
	arrs := openLoop(context.Background(), clk, 100, 5, 1, func(context.Context, int) outcome {
		clk.advance(service)
		return outcome{OK: true, Requests: 2}
	})
	if len(arrs) != 5 {
		t.Fatalf("offered %d arrivals, want 5", len(arrs))
	}
	for k, a := range arrs {
		wantLate := time.Duration(20*k) * time.Millisecond
		if got := a.late(); got != wantLate {
			t.Errorf("arrival %d late %v, want %v", k, got, wantLate)
		}
		if got := a.latency(); got != wantLate+service {
			t.Errorf("arrival %d latency %v, want %v (wait plus service)", k, got, wantLate+service)
		}
		if a.connWait() < 0 || a.connWait() > a.latency() {
			t.Errorf("arrival %d connection wait %v outside [0, %v]", k, a.connWait(), a.latency())
		}
	}
	st := account(arrs)
	if st.Completed != 5 || st.failed() != 0 || st.Requests != 10 {
		t.Errorf("account = %+v", st)
	}
	if got := percentile(sortedCopy(st.LateMS), 1); got != 80 {
		t.Errorf("max lateness %v ms, want 80", got)
	}
	if got := percentile(sortedCopy(st.LatMS), 1); got != 110 {
		t.Errorf("max latency %v ms, want 110", got)
	}
}

func TestAccountClassifiesFailures(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(o outcome) arrival {
		return arrival{Due: t0, Wake: t0, Start: t0, Done: t0.Add(time.Millisecond), Outcome: o}
	}
	st := account([]arrival{
		mk(outcome{OK: true, Requests: 1}),
		mk(outcome{Status: http.StatusTooManyRequests, Requests: 1}),
		mk(outcome{Status: http.StatusServiceUnavailable, Requests: 1}),
		mk(outcome{Status: http.StatusBadGateway, Requests: 1}),
		mk(outcome{Status: 0, Requests: 1}),
		mk(outcome{Status: http.StatusUnprocessableEntity, Requests: 2}),
	})
	if st.Attempted != 6 || st.Completed != 1 || st.Refused429 != 1 || st.Refused503 != 1 ||
		st.Server5xx != 1 || st.Transport != 1 || st.Other != 1 || st.Requests != 7 {
		t.Errorf("account = %+v", st)
	}
}

// Every arrival is due at once and each takes 5 ms of the shared clock,
// so six arrivals complete in 30 ms: 200 jobs/s.
func TestClosedLoopMeasuresCapacity(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	arrs := closedLoop(context.Background(), clk, 6, 2, func(context.Context, int) outcome {
		clk.advance(5 * time.Millisecond)
		return outcome{OK: true, Requests: 1}
	})
	st := account(arrs)
	if st.Completed != 6 || st.Elapsed != 30*time.Millisecond {
		t.Errorf("completed %d in %v, want 6 in 30ms", st.Completed, st.Elapsed)
	}
	for k, a := range arrs {
		if !a.Due.Equal(arrs[0].Due) {
			t.Errorf("arrival %d due %v after the first", k, a.Due.Sub(arrs[0].Due))
		}
	}
}
