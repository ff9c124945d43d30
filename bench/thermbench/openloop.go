package main

import (
	"context"
	"math"
	"net/http"
	"sync"
	"time"
)

// clock is the open-loop generator's time source; tests drive it by
// hand.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// outcome is what one arrival's requests ended in.
type outcome struct {
	// OK is a completed job with a result; otherwise Status classifies
	// the failure (the HTTP status, or 0 for a transport failure).
	OK       bool
	Status   int
	Requests int
}

// arrival is one scheduled request of an open loop and its timeline:
// Due when the schedule wanted it sent, Wake when the generator got to
// it, Start when a connection took it, Done when it finished.
type arrival struct {
	Due, Wake, Start, Done time.Time
	Outcome                outcome
}

// latency runs from the due time, so a stall shows in every request
// scheduled behind it.
func (a arrival) latency() time.Duration { return a.Done.Sub(a.Due) }

// late is how far behind schedule the request went out, waiting for a
// free connection included.
func (a arrival) late() time.Duration { return a.Start.Sub(a.Due) }

// connWait is the time the request waited for a free connection after
// the generator reached it.
func (a arrival) connWait() time.Duration { return a.Start.Sub(a.Wake) }

// openLoop offers n arrivals at rate per second from one generator to
// workers connections, each worker running do for one arrival at a
// time. The hand-off is unbuffered: when every connection is busy the
// generator waits, and that wait counts against the waiting request
// (it is late) rather than hiding in a queue. It returns the arrivals
// that were offered before ctx ended.
func openLoop(ctx context.Context, clk clock, rate float64, n, workers int, do func(ctx context.Context, i int) outcome) []arrival {
	out := make([]arrival, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a := &out[i]
				a.Start = clk.Now()
				a.Outcome = do(ctx, i)
				a.Done = clk.Now()
			}
		}()
	}
	start := clk.Now()
	offered := 0
offer:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		clk.SleepUntil(due)
		out[i].Due, out[i].Wake = due, clk.Now()
		select {
		case next <- i:
			offered++
		case <-ctx.Done():
			break offer
		}
	}
	close(next)
	wg.Wait()
	return out[:offered]
}

// loopStats is the accounting of one open-loop window.
type loopStats struct {
	Attempted, Completed                                int
	LatMS                                               []float64 // completed arrivals only
	LateMS, ConnWaitMS                                  []float64
	Requests                                            int
	Refused429, Refused503, Server5xx, Transport, Other int
	Elapsed                                             time.Duration // first due to last completion
}

func account(arrs []arrival) loopStats {
	var st loopStats
	var first, last time.Time
	for i, a := range arrs {
		if i == 0 || a.Due.Before(first) {
			first = a.Due
		}
		if a.Done.After(last) {
			last = a.Done
		}
		st.Attempted++
		st.Requests += a.Outcome.Requests
		st.LateMS = append(st.LateMS, msOf(a.late()))
		st.ConnWaitMS = append(st.ConnWaitMS, msOf(a.connWait()))
		if a.Outcome.OK {
			st.Completed++
			st.LatMS = append(st.LatMS, msOf(a.latency()))
			continue
		}
		switch s := a.Outcome.Status; {
		case s == 0:
			st.Transport++
		case s == http.StatusTooManyRequests:
			st.Refused429++
		case s == http.StatusServiceUnavailable:
			st.Refused503++
		case s >= 500:
			st.Server5xx++
		default:
			st.Other++
		}
	}
	st.Elapsed = last.Sub(first)
	return st
}

func (st loopStats) failed() int { return st.Attempted - st.Completed }

// closedLoop runs n arrivals back to back on workers connections: an
// open loop whose every arrival is due at once, so each connection takes
// the next arrival as soon as it finishes one. Completed arrivals over
// the elapsed time is then the capacity of the service at that
// concurrency.
func closedLoop(ctx context.Context, clk clock, n, workers int, do func(ctx context.Context, i int) outcome) []arrival {
	return openLoop(ctx, clk, math.Inf(1), n, workers, do)
}
