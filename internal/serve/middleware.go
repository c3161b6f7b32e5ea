package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/metrics"
)

// reqInfo travels with a request through the middleware chain: the ID is
// assigned (or adopted from X-Request-ID) before the handler runs, and
// handlers annotate the user as they learn it so the access-log line
// and error bodies are attributable. Handlers run on the request's own
// goroutine, so plain fields need no synchronization.
type reqInfo struct {
	id        string
	user      string
	encodeErr string // first response encode/write failure, for the access log
}

type reqInfoKeyType struct{}

var reqInfoKey reqInfoKeyType

// requestInfo returns the request's reqInfo, or nil when the request did
// not pass through the observability middleware (bare NewHandlerFor).
func requestInfo(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqInfoKey).(*reqInfo)
	return info
}

// annotate records the user on the request's reqInfo for the access
// log; a no-op without the middleware.
func annotate(r *http.Request, user string) {
	if info := requestInfo(r); info != nil {
		info.user = user
	}
}

// noteEncodeError records a response encode/write failure on the
// request's reqInfo so the access-log line ties the failure to the
// request ID. First error wins: the fallback-encode path may fail again
// on the same broken connection, and the root cause is the useful one.
func noteEncodeError(r *http.Request, err error) {
	if info := requestInfo(r); info != nil && info.encodeErr == "" {
		info.encodeErr = err.Error()
	}
}

// Request IDs are a per-process random prefix plus an atomic counter:
// unique within and across restarts, cheap to mint, trivially greppable.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			binaryFill(b[:])
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Int64
)

// binaryFill seeds the prefix from the clock when crypto/rand fails
// (effectively never; keeps the fallback deterministic-free).
func binaryFill(b []byte) {
	n := time.Now().UnixNano()
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
}

func newRequestID() string {
	return fmt.Sprintf("%s-%06x", reqIDPrefix, reqIDCounter.Add(1))
}

// statusRecorder captures the response status and body size for the
// access log and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flusher/deadline methods through this wrapper — the SSE stream flushes
// each event through the observe middleware.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// logSink serializes JSON-lines writes from concurrent requests onto one
// io.Writer.
type logSink struct {
	mu  sync.Mutex
	out io.Writer
}

// accessLine is one structured request-log record.
type accessLine struct {
	TS        string `json:"ts"`
	ID        string `json:"id"`
	Method    string `json:"method"`
	Route     string `json:"route"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	User      string `json:"user,omitempty"`
	LatencyUS int64  `json:"latency_us"`
	Bytes     int64  `json:"bytes"`
	Remote    string `json:"remote,omitempty"`
	// EncodeError is the response encode/write failure, if any; a line
	// with this set describes a response the client did not fully receive.
	EncodeError string `json:"encode_error,omitempty"`
}

func (s *logSink) write(line accessLine) {
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	_, _ = s.out.Write(b)
	s.mu.Unlock()
}

// httpMetrics are the HTTP-surface series, labeled by mux route (bounded
// cardinality: the route pattern, never the raw path).
type httpMetrics struct {
	requests *metrics.CounterVec
	latency  *metrics.HistogramVec
}

func newHTTPMetrics(reg *metrics.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.CounterVec("carserve_http_requests_total",
			"HTTP requests by mux route and response status.", "route", "code"),
		latency: reg.HistogramVec("carserve_http_request_seconds",
			"End-to-end HTTP request latency by route, including admission queueing.",
			RankLatencyBuckets, "route"),
	}
}

// observe is the outermost middleware: it assigns the request ID
// (honoring an inbound X-Request-ID), echoes it on the response, and —
// after the inner handler ran — emits the access-log line and the HTTP
// metrics. Route labels come from Go 1.23's r.Pattern, which the inner
// ServeMux fills in on the same request; unmatched requests are labeled
// "other" to bound cardinality.
func observe(next http.Handler, accessLog io.Writer, hm *httpMetrics) http.Handler {
	var sink *logSink
	if accessLog != nil {
		sink = &logSink{out: accessLog}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		info := &reqInfo{id: id}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey, info))
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}

		next.ServeHTTP(rec, r)

		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "other"
		}
		elapsed := time.Since(started)
		if hm != nil {
			hm.requests.With(route, strconv.Itoa(rec.status)).Inc()
			hm.latency.With(route).Observe(elapsed.Seconds())
		}
		if sink != nil {
			sink.write(accessLine{
				TS:          started.UTC().Format(time.RFC3339Nano),
				ID:          id,
				Method:      r.Method,
				Route:       route,
				Path:        r.URL.Path,
				Status:      rec.status,
				User:        info.user,
				LatencyUS:   elapsed.Microseconds(),
				Bytes:       rec.bytes,
				Remote:      r.RemoteAddr,
				EncodeError: info.encodeErr,
			})
		}
	})
}

// exemptPath reports whether a request bypasses the shedding middleware
// (drain, admission, request timeout): /healthz must answer while
// shedding or draining (that is when operators look) and a blocked
// /metrics would hide the very overload it reports.
func exemptPath(r *http.Request) bool {
	return r.URL.Path == "/healthz" || r.URL.Path == "/metrics"
}

// streamingPath reports whether the request is a long-lived event stream
// (GET /v1/subscriptions/{id}/events). Streams are exempt from the
// request timeout (a standing push connection has no natural deadline)
// and from the admission concurrency gate (each stream would pin a slot
// for its whole lifetime, starving request traffic; the subscription
// create already charged the per-user token bucket). Drain still applies:
// new streams are refused during shutdown.
func streamingPath(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		strings.HasPrefix(r.URL.Path, "/v1/subscriptions/") &&
		strings.HasSuffix(r.URL.Path, "/events")
}

// admissionGate applies the global concurrency gate + bounded queue.
func admissionGate(next http.Handler, adm *Admission) http.Handler {
	if adm == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r) || streamingPath(r) {
			next.ServeHTTP(w, r)
			return
		}
		release, ok, retry := adm.AcquireCtx(r.Context())
		if !ok {
			if r.Context().Err() != nil {
				// The request's deadline ran out while it queued; 503 so
				// the client (and the access log) sees a timeout, not an
				// overload verdict it should back off from forever.
				writeError(w, r, http.StatusServiceUnavailable,
					errors.New("serve: request deadline exceeded while queued"))
				return
			}
			writeShed(w, r, retry, errors.New("serve: overloaded, request queue full"))
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a panic anywhere below it — a handler, the
// backend's rank path, an injected chaos panic — into a 500 with the
// request ID, counted in carserve_panics_total, instead of an aborted
// connection (net/http would recover too, but only after killing the
// response) or a dead daemon.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				panicsTotal.Add(1)
				writeError(w, r, http.StatusInternalServerError,
					fmt.Errorf("serve: internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// DrainGate flips a server into shutdown drain: new API requests are
// refused with 503 + Connection: close (so keep-alive clients reconnect
// elsewhere) while in-flight ones finish under http.Server.Shutdown.
// The zero value is an open gate; methods tolerate a nil receiver.
type DrainGate struct {
	draining atomic.Bool
}

// Start begins draining. Idempotent.
func (g *DrainGate) Start() {
	if g != nil {
		g.draining.Store(true)
	}
}

// Draining reports whether the gate is closed to new requests.
func (g *DrainGate) Draining() bool { return g != nil && g.draining.Load() }

// drainGate refuses new API requests while g is draining. /healthz and
// /metrics stay reachable so orchestrators and scrapes can watch the
// drain complete.
func drainGate(next http.Handler, g *DrainGate) http.Handler {
	if g == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.Draining() && !exemptPath(r) {
			w.Header().Set("Connection", "close")
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusServiceUnavailable,
				errors.New("serve: draining for shutdown"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// requestTimeout bounds each API request: the deadline rides the request
// context (the admission queue waits on it; handlers check it after
// admission) and is mirrored onto the connection's read/write deadlines
// via ResponseController. Deliberately not http.TimeoutHandler — that
// clones the request, so the mux-set r.Pattern would never reach the
// outer observe middleware and every route label would become "other".
// A rank already executing on the backend is not preempted (the rank
// path is CPU-bound and lock-scoped); the deadline cuts queue waits and
// stuck connections, which is where unbounded time actually goes.
func requestTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r) || streamingPath(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		rc := http.NewResponseController(w)
		deadline := time.Now().Add(d)
		// Best-effort: ResponseControllers over non-hijackable writers
		// (tests, h2c wrappers) report ErrNotSupported; the context
		// deadline still applies.
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline.Add(time.Second))
		// WithContext shallow-copies the request, and the inner ServeMux
		// sets Pattern on that copy — carry it back so the outer observe
		// middleware labels the route instead of "other".
		r2 := r.WithContext(ctx)
		next.ServeHTTP(w, r2)
		r.Pattern = r2.Pattern
	})
}
