package server

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermflow/internal/trace"
)

// This file is thermflowd's middleware stack: small composable
// http.Handler wrappers for the concerns that sit in front of every
// endpoint — request identity, access logging, bearer-token auth, and
// body/deadline caps (per-tenant quotas live in quota.go). The handlers
// themselves stay oblivious; internal/daemon composes the chain from
// the daemons' flags.

// Middleware wraps an http.Handler.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares around h, first-listed outermost — the
// order requests traverse them.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// ctxKey scopes this package's context values.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDHeader is the wire header carrying the request ID.
const RequestIDHeader = "X-Request-Id"

// RequestID returns the request's ID ("" outside WithRequestID).
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// WithRequestID tags every request with an ID — the client's
// X-Request-Id if it sent one (capped, printable), a fresh random one
// otherwise — echoed on the response and available to inner handlers
// via RequestID, so one ID follows a request through access logs,
// error bodies and client retries.
func WithRequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
			if id == "" {
				var buf [8]byte
				if _, err := rand.Read(buf[:]); err == nil {
					id = hex.EncodeToString(buf[:])
				}
			}
			w.Header().Set(RequestIDHeader, id)
			ctx := context.WithValue(r.Context(), requestIDKey, id)
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// sanitizeRequestID keeps client-supplied IDs loggable: printable
// ASCII, bounded length.
func sanitizeRequestID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	for _, c := range id {
		if c <= ' ' || c > '~' {
			return ""
		}
	}
	return id
}

// statusWriter records the status and bytes of a response while
// passing Flush through — the batch endpoints stream NDJSON and must
// keep flushing per item.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Hijack passes through for completeness (unused by thermflowd).
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, fmt.Errorf("server: underlying writer does not hijack")
}

// WithAccessLog writes one structured JSON record per request (msg
// "access"): request ID, trace and span IDs, client, method, path,
// status, bytes, duration, and — when inner layers resolved them — the
// tenant and job ID. Carrying the same trace ID the timeline recorder
// keys on makes the log the durable half of the tracing plane:
// timelines are bounded in-memory state, the log is what survives.
// logger nil selects a JSON handler on stderr.
func WithAccessLog(logger *slog.Logger) Middleware {
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r, ri := withRequestInfo(r)
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			attrs := []slog.Attr{
				slog.String("req_id", RequestID(r)),
				slog.String("client", clientHost(r)),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", time.Since(start).Round(time.Microsecond)),
			}
			if sc := trace.FromContext(r.Context()); sc.Valid() {
				attrs = append(attrs,
					slog.String("trace_id", sc.TraceID),
					slog.String("span_id", sc.SpanID))
			}
			jobID, tenantName := ri.snapshot()
			if tenantName != "" {
				attrs = append(attrs, slog.String("tenant", tenantName))
			}
			if jobID != "" {
				attrs = append(attrs, slog.String("job_id", jobID))
			}
			logger.LogAttrs(r.Context(), slog.LevelInfo, "access", attrs...)
		})
	}
}

// clientHost is the request's peer address without the port.
func clientHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// TokenSet is a fixed set of accepted bearer tokens.
type TokenSet struct {
	tokens [][]byte
}

// NewTokenSet builds a set from literal tokens (empty ones dropped).
func NewTokenSet(tokens ...string) *TokenSet {
	ts := &TokenSet{}
	for _, t := range tokens {
		if t != "" {
			ts.tokens = append(ts.tokens, []byte(t))
		}
	}
	return ts
}

// LoadTokenFile reads a token set from path: one token per line,
// blank lines and #-comments ignored. An empty set is an error — an
// auth file that authorizes nobody is a misconfiguration, not a
// policy.
func LoadTokenFile(path string) (*TokenSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: auth token file: %w", err)
	}
	var tokens []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tokens = append(tokens, line)
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("server: auth token file %s holds no tokens", path)
	}
	return NewTokenSet(tokens...), nil
}

// Allow reports whether token is in the set, comparing constant-time
// against every member so the check leaks neither a match's position
// nor its prefix length.
func (ts *TokenSet) Allow(token string) bool {
	if ts == nil || token == "" {
		return false
	}
	b := []byte(token)
	ok := false
	for _, t := range ts.tokens {
		if subtle.ConstantTimeCompare(t, b) == 1 {
			ok = true
		}
	}
	return ok
}

// Authorizer decides whether a bearer token is accepted. *TokenSet is
// the fixed implementation; *TokenSource the file-backed reloadable
// one (SIGHUP rotation in thermflowd and thermflowgate).
type Authorizer interface {
	Allow(token string) bool
}

// TokenSource is a TokenSet bound to its file, swappable at runtime:
// Reload re-reads the file and atomically replaces the accepted set,
// so tokens rotate without a restart. Requests in flight are untouched
// — authorization happens once at request entry — and the very next
// request observes the new set: the old token stops authenticating,
// the new one starts.
type TokenSource struct {
	path string
	cur  atomic.Pointer[TokenSet]

	mu    sync.Mutex
	hooks []func(*TokenSet)
}

// OpenTokenSource loads the token file at path (see LoadTokenFile) and
// keeps the path for later Reloads.
func OpenTokenSource(path string) (*TokenSource, error) {
	ts, err := LoadTokenFile(path)
	if err != nil {
		return nil, err
	}
	s := &TokenSource{path: path}
	s.cur.Store(ts)
	return s, nil
}

// Path returns the backing file's path.
func (s *TokenSource) Path() string { return s.path }

// Allow checks token against the current set.
func (s *TokenSource) Allow(token string) bool { return s.cur.Load().Allow(token) }

// Reload re-reads the backing file and swaps the set in, then runs the
// OnReload hooks with the new set. On failure — unreadable file, a
// file that authorizes nobody — the previous set stays in force and no
// hook runs: a botched rotation must not lock every client out.
func (s *TokenSource) Reload() error {
	ts, err := LoadTokenFile(s.path)
	if err != nil {
		return err
	}
	s.cur.Store(ts)
	s.mu.Lock()
	hooks := append([]func(*TokenSet){}, s.hooks...)
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(ts)
	}
	return nil
}

// OnReload registers fn to run after every successful Reload with the
// set just installed. The quota middleware uses it to evict
// rate-limiter buckets keyed by tokens the rotation removed.
func (s *TokenSource) OnReload(fn func(*TokenSet)) {
	s.mu.Lock()
	s.hooks = append(s.hooks, fn)
	s.mu.Unlock()
}

// Reloader is a file-backed configuration source that can re-read
// itself: *TokenSource and *tenant.Source both implement it, so one
// SIGHUP rotates tokens and quotas together.
type Reloader interface {
	Reload() error
	Path() string
}

// bearerToken extracts the Bearer credential ("" when absent).
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

// WithAuth requires a bearer token accepted by a on every request;
// failures are 401 with a WWW-Authenticate challenge and the standard
// error body. Pass a *TokenSet for a fixed set or a *TokenSource for
// one that rotates at runtime.
func WithAuth(a Authorizer) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !a.Allow(bearerToken(r)) {
				w.Header().Set("WWW-Authenticate", `Bearer realm="thermflowd"`)
				WriteErr(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// WithBodyLimit caps request bodies at n bytes; oversized reads fail
// inside the handlers' decoders with the standard 400 mapping.
func WithBodyLimit(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// WithTimeout bounds every request's context. Streaming responses
// (batches, long polls) are cut off at the deadline too — size the
// limit for the slowest legitimate stream.
func WithTimeout(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}
