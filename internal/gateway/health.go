package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Active health checking: every HealthInterval the gateway probes each
// backend's GET /v2/stats. Any HTTP answer counts as alive — a backend
// that rejects the probe with 401 (the gateway holds no credentials of
// its own) or even answers 500 is still a process that routes — while
// transport failures count against it: EjectAfter consecutive failures
// remove it from the ring, after which probes back off exponentially
// (capped at MaxProbeBackoff) and the first success readmits it.
// Proxy-path transport failures feed the same counters, so real
// traffic ejects a dead backend even faster than the probe cadence.

// healthLoop drives the probe rounds until Close.
func (g *Gateway) healthLoop(ctx context.Context) {
	defer g.wg.Done()
	g.probeRound(ctx)
	t := time.NewTicker(g.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probeRound(ctx)
		}
	}
}

// probeRound probes every backend that is due, concurrently, and waits
// for the round to finish — one slow backend cannot stall the others'
// verdicts beyond its own probe timeout. Healthy backends are due on
// every tick (nextProbe would lag one tick behind the ticker and halve
// the effective cadence); nextProbe gates only the backoff of ejected
// ones.
func (g *Gateway) probeRound(ctx context.Context) {
	now := time.Now()
	g.mu.Lock()
	var due []string
	for name, b := range g.backends {
		if b.healthy || !now.Before(b.nextProbe) {
			due = append(due, name)
		}
	}
	g.mu.Unlock()

	done := make(chan struct{}, len(due))
	for _, name := range due {
		go func() {
			g.probeOne(ctx, name)
			done <- struct{}{}
		}()
	}
	for range due {
		<-done
	}
}

// probeOne issues one health probe.
func (g *Gateway) probeOne(ctx context.Context, name string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/v2/stats", nil)
	if err != nil {
		g.observeFailure(name, err)
		return
	}
	resp, err := g.probe.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // shutting down; not the backend's fault
		}
		g.observeFailure(name, err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	g.observeSuccess(name)
}

// observeSuccess records a live backend, readmitting it to the ring if
// it was ejected.
func (g *Gateway) observeSuccess(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.backends[name]
	if b == nil {
		return
	}
	now := time.Now()
	b.fails = 0
	b.lastErr = ""
	b.lastProbe = now
	b.nextProbe = now // healthy members are probed every tick
	if !b.healthy {
		b.healthy = true
		g.rebuildRingLocked()
		g.metrics.readmissions.Inc()
		g.logger.Printf("gateway: backend %s readmitted (%d on ring)", name, g.ring.Len())
	}
	// A backend answering again while it owes a cache reset gets the
	// reset re-issued before it can serve pre-reset results as fresh.
	if b.pendingCacheReset && !b.resetInflight {
		b.resetInflight = true
		g.wg.Add(1)
		go g.reissueCacheReset(name, b.cacheResetAuth)
	}
}

// reissueCacheReset retries a pool-wide cache reset on a backend the
// original DELETE /v2/cache did not reach. On failure the pending flag
// stays set; the next successful contact tries again.
func (g *Gateway) reissueCacheReset(name, auth string) {
	defer g.wg.Done()
	ctx, cancel := context.WithTimeout(context.Background(), replicatePushTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, name+"/v2/cache", nil)
	if err == nil {
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		var resp *http.Response
		resp, err = g.hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			ok = resp.StatusCode/100 == 2
			if !ok {
				err = fmt.Errorf("%s", resp.Status)
			}
		}
	}
	g.mu.Lock()
	if b := g.backends[name]; b != nil {
		b.resetInflight = false
		if ok {
			b.pendingCacheReset = false
			b.cacheResetAuth = ""
		}
	}
	g.mu.Unlock()
	if ok {
		g.logger.Printf("gateway: backend %s: pending cache reset re-issued", name)
	} else {
		g.logger.Printf("gateway: backend %s: pending cache reset re-issue failed: %v", name, err)
	}
}

// observeFailure records a probe or proxy transport failure,
// ejecting the backend once the failure streak reaches EjectAfter and
// backing its probes off while it stays dark.
func (g *Gateway) observeFailure(name string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.backends[name]
	if b == nil {
		return
	}
	now := time.Now()
	b.fails++
	b.lastErr = err.Error()
	b.lastProbe = now
	if b.healthy && b.fails >= g.ejectAfter {
		b.healthy = false
		g.rebuildRingLocked()
		g.metrics.ejections.Inc()
		g.logger.Printf("gateway: backend %s ejected after %d failures: %v (%d on ring)",
			name, b.fails, err, g.ring.Len())
	}
	if b.healthy {
		b.nextProbe = now // still on the ring: keep the full cadence
		return
	}
	backoff := g.interval
	for i := g.ejectAfter; i < b.fails && backoff < g.maxBackoff; i++ {
		backoff *= 2
	}
	if backoff > g.maxBackoff {
		backoff = g.maxBackoff
	}
	b.nextProbe = now.Add(backoff)
}
