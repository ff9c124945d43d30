package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one hop
// of a served arrival, as recorded from the benchmark's own side.
type span struct {
	Name     string `json:"name"`
	TraceID  string `json:"trace_id"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"` // 0 = root
	StartUS  int64  `json:"start_us"`         // since the recorder's epoch
	Duration int64  `json:"duration_us"`
}

// maxSpans bounds the spans kept in memory; later spans are counted as
// dropped instead of stored.
const maxSpans = 200_000

// spanRecorder keeps spans in memory and writes them out once, when the
// pass ends. Safe for concurrent use.
type spanRecorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int
	dropped int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// record stores a finished span and returns its ID for children.
func (r *spanRecorder) record(name, traceID string, parent int, start time.Time, d time.Duration) int {
	id := r.reserve()
	r.recordAs(id, name, traceID, parent, start, d)
	return id
}

// reserve hands out a span ID before the span finishes, so children
// recorded first can name their parent.
func (r *spanRecorder) reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// recordAs stores a finished span under an ID obtained from reserve.
func (r *spanRecorder) recordAs(id int, name, traceID string, parent int, start time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		Name: name, TraceID: traceID, ID: id, Parent: parent,
		StartUS: start.Sub(r.epoch).Microseconds(), Duration: d.Microseconds(),
	})
}

// Dropped reports the spans not kept because of the bound.
func (r *spanRecorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// write saves every kept span as one JSON document.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := struct {
		Epoch   time.Time `json:"epoch"`
		Dropped int       `json:"dropped"`
		Spans   []span    `json:"spans"`
	}{r.epoch, r.dropped, r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
