// Package trace is thermflow's dependency-free distributed tracing
// plane: trace/span identities, phase-tagged spans with parent links,
// and a bounded in-memory recorder of per-job timelines. It answers
// the question the metrics plane cannot — "why was THIS job slow" —
// by tying together the hops one job takes across the gateway and its
// owning backend under one trace ID.
//
// Identity travels on the wire in the X-Thermflow-Trace header
// (server.TraceHeader) as "traceID-spanID" — a traceparent-style pair
// of lowercase hex strings. Parsing is strict: anything that is not
// exactly 32+16 lowercase hex characters is discarded and replaced
// with a fresh identity, the same hostile-input stance the request-ID
// middleware takes (sanitize, never echo).
//
// Retention is bounded twice over: the recorder keeps at most
// DefaultMaxTimelines job timelines (LRU-evicted) of at most
// DefaultMaxSpans spans each (excess spans are counted, not stored).
// Timelines are in-memory only — they do not ride the job WAL — so a
// restart forgets them; the structured access logs, which carry the
// same trace IDs, are the durable record.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Wire sizes: 16-byte trace IDs, 8-byte span IDs, hex-encoded.
const (
	traceIDHexLen = 32
	spanIDHexLen  = 16
)

// Recorder retention defaults.
const (
	DefaultMaxTimelines = 512
	DefaultMaxSpans     = 256
)

// NewTraceID returns a fresh 32-hex-char trace ID ("" only if the
// system's entropy source fails, which renders the context invalid and
// disables tracing for that request rather than tracing under a
// guessable identity).
func NewTraceID() string { return randHex(traceIDHexLen / 2) }

// NewSpanID returns a fresh 16-hex-char span ID.
func NewSpanID() string { return randHex(spanIDHexLen / 2) }

func randHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		return ""
	}
	return hex.EncodeToString(buf)
}

// SpanContext is the propagated identity: which trace a request
// belongs to and which span is the current parent.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// New mints a fresh root context: new trace, new span.
func New() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// Valid reports whether both IDs have the exact wire shape.
func (c SpanContext) Valid() bool {
	return isHex(c.TraceID, traceIDHexLen) && isHex(c.SpanID, spanIDHexLen)
}

// Header renders the wire form, "traceID-spanID".
func (c SpanContext) Header() string { return c.TraceID + "-" + c.SpanID }

// ParseHeader decodes a wire header. It is a sanitizer, not just a
// parser: the only accepted shape is exactly 32 lowercase hex chars,
// a dash, and 16 lowercase hex chars. Anything else — wrong lengths,
// uppercase, control bytes, injection attempts — reports false, and
// callers mint a fresh identity instead of echoing hostile input.
func ParseHeader(h string) (SpanContext, bool) {
	if len(h) != traceIDHexLen+1+spanIDHexLen || h[traceIDHexLen] != '-' {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: h[:traceIDHexLen], SpanID: h[traceIDHexLen+1:]}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// isHex reports whether s is exactly n lowercase hex characters.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ctxKey scopes this package's context value.
type ctxKey struct{}

// NewContext attaches a span context to ctx; handlers and proxies
// downstream read it with FromContext to parent their own spans and
// to stamp the outbound wire header.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the context's span context (invalid zero value
// outside a traced request).
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// Span is one timed, named phase of a job's life: a server request, a
// queue wait, a solver run. Parent links spans into a tree; Attrs carry
// small phase-specific facts (queue outcome, solver, cache outcome). Spans are immutable once recorded.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	Parent   string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Service  string            `json:"service,omitempty"`
	Start    time.Time         `json:"-"`
	Duration time.Duration     `json:"-"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Timeline is one job's recorded spans in arrival order, plus how many
// were dropped at the per-timeline bound.
type Timeline struct {
	Key     string
	TraceID string
	Spans   []Span
	Dropped int
}

// Recorder stores bounded per-key (per-job) timelines. All methods are
// nil-safe — an untraced deployment passes nil and pays one check —
// and safe for concurrent use.
type Recorder struct {
	service      string
	maxTimelines int
	maxSpans     int

	mu        sync.Mutex
	timelines map[string]*Timeline
	order     []string // LRU, oldest first
}

// NewRecorder builds a recorder whose spans default their Service to
// service. maxTimelines/maxSpans <= 0 select the defaults.
func NewRecorder(service string, maxTimelines, maxSpans int) *Recorder {
	if maxTimelines <= 0 {
		maxTimelines = DefaultMaxTimelines
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Recorder{
		service: service, maxTimelines: maxTimelines, maxSpans: maxSpans,
		timelines: make(map[string]*Timeline),
	}
}

// Service names the recording process ("" on a nil recorder).
func (r *Recorder) Service() string {
	if r == nil {
		return ""
	}
	return r.service
}

// Record appends spans to key's timeline, creating it (and LRU-
// evicting the oldest timeline at the bound) on first touch. Spans
// beyond the per-timeline cap are dropped and counted — a job whose
// trace is read or resubmitted thousands of times keeps its earliest
// spans and an honest drop count rather than growing without bound. Spans with an empty Service are
// stamped with the recorder's.
func (r *Recorder) Record(key string, spans ...Span) {
	if r == nil || key == "" || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[key]
	if !ok {
		for len(r.timelines) >= r.maxTimelines && len(r.order) > 0 {
			victim := r.order[0]
			r.order = r.order[1:]
			delete(r.timelines, victim)
		}
		tl = &Timeline{Key: key}
		r.timelines[key] = tl
		r.order = append(r.order, key)
	} else {
		r.touchLocked(key)
	}
	for _, sp := range spans {
		if sp.Service == "" {
			sp.Service = r.service
		}
		if tl.TraceID == "" {
			tl.TraceID = sp.TraceID
		}
		if len(tl.Spans) >= r.maxSpans {
			tl.Dropped++
			continue
		}
		tl.Spans = append(tl.Spans, sp)
	}
}

// touchLocked moves key to the back of the eviction order.
func (r *Recorder) touchLocked(key string) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append(r.order, key)
}

// Timeline returns a copy of key's timeline, reporting whether one is
// recorded. The copy's span slice is fresh; callers may sort it.
func (r *Recorder) Timeline(key string) (Timeline, bool) {
	if r == nil {
		return Timeline{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[key]
	if !ok {
		return Timeline{}, false
	}
	out := Timeline{Key: tl.Key, TraceID: tl.TraceID, Dropped: tl.Dropped}
	out.Spans = append([]Span(nil), tl.Spans...)
	return out, true
}

// Len reports how many timelines are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.timelines)
}
