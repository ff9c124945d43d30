package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"thermflow/api"
	"thermflow/internal/jobs"
	"thermflow/internal/server"
)

// Status replication: every terminal JobStatus the gateway relays —
// from a status read, a long poll, or a submit that answered
// terminally on the spot — is also pushed to the ID's next R members
// on the read ring (PUT /v2/jobs/{id}/replica). Each successor shelves
// the document verbatim and serves it on a registry miss, so a job's
// answer outlives its owner: if the owner dies permanently, the
// gateway's candidate walk (handleJobGet) reaches a successor and the
// ID still resolves. The push is asynchronous and best-effort — the
// client's response is never held for it — and deduplicated per ID and
// state. A failed or expired job is replaced by a fresh one when its
// spec is submitted again, so a later relay with another terminal
// state pushes again; a done answer is final, and a relay for an ID
// already pushed done is not even decoded.

// replicatePushTimeout bounds one replica push (and one cache-reset
// re-issue; see health.go).
const replicatePushTimeout = 5 * time.Second

// replicatedCap bounds the push-dedup memory. Evicting an ID only
// means a later read of it replicates again — wasted bytes, not
// wrong ones.
const replicatedCap = 8192

// relayAndReplicate relays job id's status response to the client and,
// when it carries a terminal status this gateway has not replicated
// yet, pushes it to the ID's ring successors in the background.
func (g *Gateway) relayAndReplicate(w http.ResponseWriter, r *http.Request, resp *http.Response, id, served string) {
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)

	switch {
	case readErr != nil || g.replicas <= 0:
		return
	case resp.Header.Get(server.ReplicaHeader) != "":
		return // a successor's shelf answered; the copies already exist
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout:
		return // 504 carries an expired job's status; other non-200s carry no job
	}
	g.mu.Lock()
	final := g.replicated[id] == jobs.StateDone
	g.mu.Unlock()
	if final {
		return
	}
	var st api.JobStatus
	if json.Unmarshal(body, &st) != nil || st.ID != id || !jobs.State(st.State).Terminal() {
		return
	}
	g.replicate(id, jobs.State(st.State), body, served, r.Header.Get("Authorization"))
}

// replicate pushes one terminal status to the ID's read-ring
// successors, skipping the backend that served it (it already has the
// job). No-op if the ID was already pushed in this state, or done.
func (g *Gateway) replicate(id string, state jobs.State, body []byte, served, auth string) {
	g.mu.Lock()
	if was := g.replicated[id]; was == state || was == jobs.StateDone {
		g.mu.Unlock()
		return
	}
	g.markReplicatedLocked(id, state)
	ring := g.readRing
	g.mu.Unlock()

	var targets []string
	for _, name := range ring.Successors(id, g.replicas+1) {
		if name == served {
			continue
		}
		targets = append(targets, name)
		if len(targets) == g.replicas {
			break
		}
	}
	if len(targets) == 0 {
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		pushed := 0
		for _, t := range targets {
			if g.pushReplica(t, id, body, auth) {
				pushed++
			}
		}
		if pushed == 0 {
			// Nothing landed; forget the ID so a later read retries,
			// unless a later state was pushed meanwhile.
			g.mu.Lock()
			if g.replicated[id] == state {
				delete(g.replicated, id)
			}
			g.mu.Unlock()
		}
	}()
}

// markReplicatedLocked records an ID as pushed in state, evicting the
// oldest mark past the cap.
func (g *Gateway) markReplicatedLocked(id string, state jobs.State) {
	_, known := g.replicated[id]
	g.replicated[id] = state
	if known {
		return
	}
	g.replOrder = append(g.replOrder, id)
	for len(g.replOrder) > replicatedCap {
		evict := g.replOrder[0]
		g.replOrder = g.replOrder[1:]
		delete(g.replicated, evict)
	}
}

// pushReplica PUTs one status document onto one successor's shelf.
func (g *Gateway) pushReplica(target, id string, body []byte, auth string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), replicatePushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		target+"/v2/jobs/"+id+"/replica", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		g.logger.Printf("gateway: replicating job %.12s to %s: %v", id, target, err)
		g.metrics.replicaPushes.With("error").Inc()
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		g.logger.Printf("gateway: replicating job %.12s to %s: %s", id, target, resp.Status)
		g.metrics.replicaPushes.With("error").Inc()
		return false
	}
	g.metrics.replicaPushes.With("ok").Inc()
	return true
}
