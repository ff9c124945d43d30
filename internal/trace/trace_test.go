package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDShapes(t *testing.T) {
	sc := New()
	if !sc.Valid() {
		t.Fatalf("New() produced invalid context %+v", sc)
	}
	if len(sc.TraceID) != traceIDHexLen || len(sc.SpanID) != spanIDHexLen {
		t.Fatalf("unexpected ID lengths: trace %d, span %d", len(sc.TraceID), len(sc.SpanID))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	sc := New()
	got, ok := ParseHeader(sc.Header())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseHeaderRejectsHostileInput(t *testing.T) {
	valid := New().Header()
	bad := []string{
		"",
		"not-a-trace",
		strings.Repeat("z", traceIDHexLen) + "-" + strings.Repeat("0", spanIDHexLen), // non-hex
		strings.ToUpper(valid), // uppercase hex
		valid + "x",            // trailing junk
		valid[:len(valid)-1],   // truncated
		strings.Replace(valid, "-", "_", 1),
		"<script>alert(1)</script>-0000000000000000",
		strings.Repeat("0", traceIDHexLen) + "\x00" + strings.Repeat("0", spanIDHexLen),
	}
	for _, h := range bad {
		if sc, ok := ParseHeader(h); ok {
			t.Errorf("ParseHeader(%q) accepted hostile input as %+v", h, sc)
		}
	}
}

func TestRecorderRecordsAndCopies(t *testing.T) {
	r := NewRecorder("testsvc", 0, 0)
	sc := New()
	start := time.Unix(100, 0)
	r.Record("job1", Span{
		TraceID: sc.TraceID, SpanID: sc.SpanID, Name: "job.queued",
		Start: start, Duration: time.Second,
	})
	tl, ok := r.Timeline("job1")
	if !ok {
		t.Fatalf("timeline missing after Record")
	}
	if tl.TraceID != sc.TraceID {
		t.Fatalf("timeline trace ID = %q, want %q", tl.TraceID, sc.TraceID)
	}
	if len(tl.Spans) != 1 || tl.Spans[0].Service != "testsvc" {
		t.Fatalf("spans = %+v, want one span with Service stamped", tl.Spans)
	}
	// The returned slice is a copy: mutating it must not leak back.
	tl.Spans[0].Name = "mutated"
	again, _ := r.Timeline("job1")
	if again.Spans[0].Name != "job.queued" {
		t.Fatalf("Timeline returned a shared slice")
	}
}

func TestRecorderBoundsSpansPerTimeline(t *testing.T) {
	r := NewRecorder("svc", 4, 3)
	sc := New()
	for i := 0; i < 5; i++ {
		r.Record("job", Span{TraceID: sc.TraceID, SpanID: NewSpanID(), Name: "s"})
	}
	tl, _ := r.Timeline("job")
	if len(tl.Spans) != 3 || tl.Dropped != 2 {
		t.Fatalf("got %d spans, %d dropped; want 3 and 2", len(tl.Spans), tl.Dropped)
	}
}

func TestRecorderEvictsOldestTimeline(t *testing.T) {
	r := NewRecorder("svc", 2, 8)
	sc := New()
	for i := 0; i < 3; i++ {
		r.Record(fmt.Sprintf("job%d", i), Span{TraceID: sc.TraceID, SpanID: NewSpanID(), Name: "s"})
	}
	if _, ok := r.Timeline("job0"); ok {
		t.Fatalf("oldest timeline survived past the bound")
	}
	for _, key := range []string{"job1", "job2"} {
		if _, ok := r.Timeline(key); !ok {
			t.Fatalf("timeline %s evicted too eagerly", key)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record("k", Span{Name: "s"}) // must not panic
	if _, ok := r.Timeline("k"); ok {
		t.Fatalf("nil recorder returned a timeline")
	}
	if r.Len() != 0 || r.Service() != "" {
		t.Fatalf("nil recorder not inert")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("svc", 16, 32)
	sc := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("job%d", i%20)
				r.Record(key, Span{TraceID: sc.TraceID, SpanID: NewSpanID(), Name: "s"})
				r.Timeline(key)
			}
		}()
	}
	wg.Wait()
}
