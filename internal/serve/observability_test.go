package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/metrics"

	contextrank "repro"
)

// newObservedServer boots a handler with the full middleware stack:
// metrics registry, JSON access log into buf, and the given admission
// controller.
func newObservedServer(t *testing.T, adm *Admission, buf *bytes.Buffer) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	srv := NewServer(contextrank.NewSystem(), Options{})
	reg := metrics.NewRegistry()
	ts := httptest.NewServer(NewHandlerWith(srv, HandlerOptions{
		Admission: adm,
		AccessLog: buf,
		Metrics:   reg,
	}))
	t.Cleanup(ts.Close)

	call(t, ts, "POST", "/v1/declare", `{"concepts":["Thing","Ctx"]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/assert",
		`{"concepts":[{"concept":"Thing","id":"a","prob":1}]}`, http.StatusOK, nil)
	return ts, reg
}

// TestMetricsEndpoint scrapes /metrics after live traffic and asserts the
// key carserve_* series are present with sane values.
func TestMetricsEndpoint(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := newObservedServer(t, nil, &buf)

	call(t, ts, "PUT", "/v1/sessions/alice/context",
		`{"measurements":[{"concept":"Ctx","prob":1}]}`, http.StatusOK, nil)
	call(t, ts, "GET", "/v1/rank?user=alice&target=Thing", "", http.StatusOK, nil)
	call(t, ts, "GET", "/v1/rank?user=alice&target=Thing", "", http.StatusOK, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type = %q, want %q", ct, metrics.ContentType)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()

	for _, want := range []string{
		"carserve_rank_requests_total 2\n",
		"carserve_sessions 1\n",
		"carserve_rank_cache_hits_total 1\n",
		"carserve_rank_latency_seconds_count 2\n",
		`carserve_rank_latency_seconds_bucket{le="+Inf"} 2`,
		`carserve_health{state="healthy"} 1`,
		`carserve_http_requests_total{route="GET /v1/rank",code="200"} 2`,
		`carserve_shed_total{reason="queue_full"} 0`,
		`carserve_shed_total{reason="rate_limit"} 0`,
		"# TYPE carserve_rank_latency_seconds histogram",
		"# TYPE carserve_plan_cache_hit_ratio gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestRequestIDs: an inbound X-Request-ID is honored end to end; without
// one the middleware mints an ID and puts it in error bodies.
func TestRequestIDs(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := newObservedServer(t, nil, &buf)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/rank?user=&target=", nil)
	req.Header.Set("X-Request-ID", "trace-me-123")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-123" {
		t.Errorf("echoed id = %q, want trace-me-123", got)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "trace-me-123" {
		t.Errorf("error body request_id = %q, want trace-me-123", e.RequestID)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("error content type = %q", resp.Header.Get("Content-Type"))
	}

	// No inbound ID: one is minted, echoed, and logged.
	resp2, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted")
	}

	// The access log carries the inbound ID on its line.
	if !strings.Contains(buf.String(), `"id":"trace-me-123"`) {
		t.Errorf("access log missing the request id:\n%s", buf.String())
	}
}

// TestAccessLogLine parses one JSON log line and checks the schema.
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := newObservedServer(t, nil, &buf)
	call(t, ts, "PUT", "/v1/sessions/bob/context",
		`{"measurements":[{"concept":"Ctx","prob":1}]}`, http.StatusOK, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line accessLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("unparseable log line %q: %v", lines[len(lines)-1], err)
	}
	if line.Method != "PUT" || line.Route != "PUT /v1/sessions/{user}/context" {
		t.Errorf("method/route = %q %q", line.Method, line.Route)
	}
	if line.Status != http.StatusOK || line.User != "bob" || line.ID == "" {
		t.Errorf("status/user/id = %d %q %q", line.Status, line.User, line.ID)
	}
	if line.Path != "/v1/sessions/bob/context" || line.Bytes <= 0 || line.TS == "" {
		t.Errorf("path/bytes/ts = %q %d %q", line.Path, line.Bytes, line.TS)
	}
}

// TestRateLimit429 drives one user past its token bucket over HTTP and
// checks the 429 contract: Retry-After header, JSON body with request_id,
// shed counted in /metrics — and a second user is still admitted.
func TestRateLimit429(t *testing.T) {
	var buf bytes.Buffer
	adm := NewAdmission(AdmissionOptions{PerUserRate: 0.001, PerUserBurst: 2})
	ts, _ := newObservedServer(t, adm, &buf)

	rank := func(user string) *http.Response {
		resp, err := ts.Client().Get(ts.URL + "/v1/rank?user=" + user + "&target=Thing")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	rank("carol").Body.Close()
	rank("carol").Body.Close()
	resp := rank("carol")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3rd request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID == "" || !strings.Contains(e.Error, "rate limit") {
		t.Errorf("shed body = %+v", e)
	}

	// Another user is unaffected (isolation over HTTP).
	resp2 := rank("dave")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("other user status = %d, want 200", resp2.StatusCode)
	}

	// The shed shows up in the scrape and the access log.
	var scrape bytes.Buffer
	sr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape.ReadFrom(sr.Body)
	sr.Body.Close()
	if !strings.Contains(scrape.String(), `carserve_shed_total{reason="rate_limit"} 1`) {
		t.Error("scrape missing the rate_limit shed count")
	}
	if !strings.Contains(buf.String(), `"status":429`) {
		t.Error("access log missing the 429 line")
	}
}

// TestQueueFull429 saturates a 1-in-flight, 0-queue gate with a slow
// request and checks the concurrent one is shed with 429.
func TestQueueFull429(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{MaxInFlight: 1, MaxQueue: 0})

	release := make(chan struct{})
	entered := make(chan struct{})
	slow := http.NewServeMux()
	slow.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	// Route /slow through the same middleware chain as the API.
	ts := httptest.NewServer(observe(admissionGate(slow, adm), nil, nil))
	defer ts.Close()

	go func() {
		resp, err := ts.Client().Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := ts.Client().Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 without Retry-After")
	}
	close(release)
	if st := adm.Stats(); st.ShedQueue != 1 {
		t.Errorf("ShedQueue = %d, want 1", st.ShedQueue)
	}
}

// TestHealthzBypassesAdmission: liveness must answer even when the gate
// is saturated.
func TestHealthzBypassesAdmission(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{MaxInFlight: 1, MaxQueue: 0})
	var buf bytes.Buffer
	ts, _ := newObservedServer(t, adm, &buf)

	rel, ok, _ := adm.Acquire() // saturate the gate out-of-band
	if !ok {
		t.Fatal("setup acquire failed")
	}
	defer rel()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics under saturation = %d, want 200", mresp.StatusCode)
	}
}

// TestRouteLabelsSurviveRequestTimeout: the request-timeout middleware
// shallow-copies the request (WithContext), and the mux sets Pattern on
// that copy — the timeout wrapper must carry it back so metrics and the
// access log label the route instead of "other".
func TestRouteLabelsSurviveRequestTimeout(t *testing.T) {
	var buf bytes.Buffer
	srv := NewServer(contextrank.NewSystem(), Options{})
	reg := metrics.NewRegistry()
	ts := httptest.NewServer(NewHandlerWith(srv, HandlerOptions{
		AccessLog:      &buf,
		Metrics:        reg,
		RequestTimeout: 5 * time.Second,
	}))
	t.Cleanup(ts.Close)

	call(t, ts, "POST", "/v1/declare", `{"concepts":["Thing","Ctx"]}`, http.StatusOK, nil)
	call(t, ts, "PUT", "/v1/sessions/alice/context",
		`{"measurements":[{"concept":"Ctx","prob":1}]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/rank", `{"user":"alice","target":"Thing"}`, http.StatusOK, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	if !strings.Contains(text, `carserve_http_requests_total{route="POST /v1/rank",code="200"} 1`) {
		t.Errorf("scrape missing the POST /v1/rank route label:\n%s", text)
	}
	if strings.Contains(text, `route="other"`) {
		t.Errorf("matched routes fell back to the \"other\" label:\n%s", text)
	}
	if !strings.Contains(buf.String(), `"route":"POST /v1/rank"`) {
		t.Errorf("access log lost the route pattern: %s", buf.String())
	}
}
