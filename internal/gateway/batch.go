package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"thermflow/api"
	"thermflow/internal/server"
)

// Batch fan-out: a client batch is split by shard — every job routed
// to its ID's owner — and the per-shard /v2/batch NDJSON streams merge
// back into one client stream in completion order. Items are remapped
// from shard-local indices to the client's, so the response is
// indistinguishable from one backend's (every index answered exactly
// once, IDs stable). When a backend dies mid-stream its unanswered
// jobs re-dispatch to the next member of the ring with the dead one
// excluded — submission is idempotent by content identity, so the
// worst case is a recompute (or a cache hit) on the member the keys
// would remap to anyway. Jobs that exhaust every backend are answered
// with per-item gateway errors, never silently dropped.

// batchItem is one client job annotated with its identity and
// position.
type batchItem struct {
	orig int    // index in the client's request
	id   string // content identity = shard key
	req  api.JobRequest
}

// resolveBatchItems canonicalizes a batch up front, before the first
// streamed byte, mirroring the backends' 422 behaviour. The boolean
// reports success; on failure the response has been written.
func resolveBatchItems(w http.ResponseWriter, reqs []api.JobRequest) ([]batchItem, bool) {
	if len(reqs) == 0 {
		server.WriteErr(w, http.StatusUnprocessableEntity, "batch has no jobs")
		return nil, false
	}
	if len(reqs) > server.MaxBatchJobs {
		server.WriteErr(w, http.StatusUnprocessableEntity,
			"batch has %d jobs, limit %d", len(reqs), server.MaxBatchJobs)
		return nil, false
	}
	items := make([]batchItem, len(reqs))
	for i, jr := range reqs {
		spec, err := server.ResolveSpec(jr)
		if err != nil {
			server.WriteErr(w, http.StatusUnprocessableEntity, "job %d: %v", i, err)
			return nil, false
		}
		id, err := spec.ID()
		if err != nil {
			server.WriteErr(w, http.StatusUnprocessableEntity, "job %d: %v", i, err)
			return nil, false
		}
		items[i] = batchItem{orig: i, id: id, req: jr}
	}
	return items, true
}

// ndjsonWriter serializes merged items onto the client stream; the
// mutex orders concurrent shard goroutines.
type ndjsonWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{enc: json.NewEncoder(w), flusher: flusher}
}

func (nw *ndjsonWriter) write(v any) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	_ = nw.enc.Encode(v) // the client is gone if this fails
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// handleBatch is POST /v2/batch through the pool.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req api.JobsBatchRequest
	if !decodeBody(w, body, &req) {
		return
	}
	items, ok := resolveBatchItems(w, req.Jobs)
	if !ok {
		return
	}
	nw := newNDJSONWriter(w)
	g.fanBatch(r, items, func(item api.JobItem) { nw.write(item) })
}

// fanState tracks one fanned-out batch: which client indices have been
// answered (exactly-once across shard streams and re-dispatches) and
// the emit path back to the client.
type fanState struct {
	g    *Gateway
	r    *http.Request
	emit func(api.JobItem)

	mu       sync.Mutex
	answered []bool
}

// claim marks a client index answered, reporting whether the caller
// won the claim (false: someone already answered it; drop the item).
func (st *fanState) claim(orig int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.answered[orig] {
		return false
	}
	st.answered[orig] = true
	return true
}

// fanBatch runs the full fan-out/merge/failover cycle and returns when
// every item has been answered (or the client has gone away).
func (g *Gateway) fanBatch(r *http.Request, items []batchItem, emit func(api.JobItem)) {
	st := &fanState{g: g, r: r, emit: emit, answered: make([]bool, len(items))}
	var wg sync.WaitGroup
	st.dispatch(&wg, items, nil)
	wg.Wait()
}

// dispatch groups the not-yet-answered items by owner — skipping the
// excluded backends this chain has already watched fail — and starts
// one shard stream per owner. Items with no candidate left are
// answered with a gateway error.
func (st *fanState) dispatch(wg *sync.WaitGroup, items []batchItem, exclude map[string]bool) {
	groups := make(map[string][]batchItem)
	for _, it := range items {
		owner := ""
		for _, cand := range st.g.route(it.id) {
			if !exclude[cand] {
				owner = cand
				break
			}
		}
		if owner == "" {
			if st.claim(it.orig) {
				st.emit(api.JobItem{Index: it.orig, ID: it.id,
					Error: "gateway: no healthy backend for job"})
			}
			continue
		}
		groups[owner] = append(groups[owner], it)
	}
	for name, shard := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.runShard(wg, name, shard, exclude)
		}()
	}
}

// runShard streams one shard through one backend and, if the backend
// dies mid-stream, re-dispatches whatever it left unanswered.
func (st *fanState) runShard(wg *sync.WaitGroup, name string, shard []batchItem, exclude map[string]bool) {
	err := st.stream(name, shard)
	if err == nil || st.r.Context().Err() != nil {
		return // complete, or the client is gone
	}
	st.g.observeFailure(name, err)
	st.g.metrics.failovers.Inc()
	st.g.logger.Printf("gateway: shard of %d jobs on %s failed (%v); re-dispatching unanswered jobs",
		len(shard), name, err)
	ex := make(map[string]bool, len(exclude)+1)
	for k := range exclude {
		ex[k] = true
	}
	ex[name] = true
	var remaining []batchItem
	st.mu.Lock()
	for _, it := range shard {
		if !st.answered[it.orig] {
			remaining = append(remaining, it)
		}
	}
	st.mu.Unlock()
	if len(remaining) > 0 {
		// Re-dispatch is safe to nest: wg.Add happens before this
		// goroutine's Done, so the waiter cannot miss the new shards.
		st.dispatch(wg, remaining, ex)
	}
}

// stream POSTs one shard to a backend's /v2/batch and merges its
// NDJSON items onto the client stream, remapping shard-local indices
// to client indices. A non-2xx answer, a broken connection or a
// truncated stream (fewer items than jobs) is the shard failing.
func (st *fanState) stream(name string, shard []batchItem) error {
	reqs := make([]api.JobRequest, len(shard))
	for i, it := range shard {
		reqs[i] = it.req
	}
	body, err := json.Marshal(api.JobsBatchRequest{Jobs: reqs})
	if err != nil {
		return fmt.Errorf("encoding shard: %w", err)
	}
	resp, err := st.g.send(st.r, name, http.MethodPost, "/v2/batch", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("shard rejected: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	seenIdx := make([]bool, len(shard)) // distinct indices, not raw lines:
	seen := 0                           // a repeated index must not mask an omitted one
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item api.JobItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("malformed shard stream line: %w", err)
		}
		if item.Index < 0 || item.Index >= len(shard) {
			return fmt.Errorf("shard stream index %d out of range", item.Index)
		}
		it := shard[item.Index]
		if !seenIdx[item.Index] {
			seenIdx[item.Index] = true
			seen++
		}
		if st.claim(it.orig) {
			item.Index = it.orig
			if item.ID == "" {
				item.ID = it.id
			}
			st.emit(item)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("shard stream: %w", err)
	}
	if seen < len(shard) {
		return fmt.Errorf("shard stream truncated: %d of %d items", seen, len(shard))
	}
	return nil
}
