package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one load-generator connection: an HTTP client pinned to a single
// keep-alive TCP connection, used by one goroutine at a time.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	tr   *tracer // nil when the run is not traced
}

// reqSeq numbers requests process-wide; the number is sent as X-Request-ID
// so a traced run can join client and handler spans.
var reqSeq atomic.Int64

func newConn(base string, tr *tracer) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: base, hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

func (c *conn) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// userHeader carries the request's user, so a traced run can attribute
// backend calls to handler spans without reading request bodies.
const userHeader = "X-Bench-User"

// do sends one request for user and returns the status and body. The body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(method, path, user string, body []byte) (int, []byte, error) {
	id := strconv.FormatInt(reqSeq.Add(1), 10)
	start := c.tr.now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	if user != "" {
		req.Header.Set(userHeader, user)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		if r := routeOf(method, path); r != "" {
			c.tr.add(span{name: "client." + r, start: start, end: c.tr.now(), req: id, user: user})
		}
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call is do for requests that must succeed; it decodes a JSON response
// into out when out is non-nil.
func (c *conn) call(method, path, user string, body []byte, out any) error {
	status, resp, err := c.do(method, path, user, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// routeOf names the traced API routes; other requests are not traced.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/rank":
		return "rank"
	case method == http.MethodPost && path == "/v1/rank/batch":
		return "rank_batch"
	case method == http.MethodPut && strings.HasPrefix(path, "/v1/sessions/"):
		return "session_put"
	}
	return ""
}

type result struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type rankResponse struct {
	Results []result `json:"results"`
}

type batchResponse struct {
	Items []struct {
		Results []result `json:"results"`
		Error   string   `json:"error"`
	} `json:"items"`
}

// serverStats is the slice of GET /v1/stats the benchmark reads.
type serverStats struct {
	Sessions int `json:"sessions"`
	Events   int `json:"events"`
	Cache    struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evicted   int64 `json:"evicted"`
	} `json:"cache"`
	Plans struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Refreshed int64 `json:"refreshed"`
	} `json:"plan_cache"`
	Journal struct {
		Appends int64 `json:"appends"`
		Fsyncs  int64 `json:"fsyncs"`
	} `json:"journal"`
	Subs struct {
		Events  int64 `json:"events"`
		Evals   int64 `json:"evals"`
		Skipped int64 `json:"skipped"`
		Lagged  int64 `json:"lagged"`
	} `json:"subscriptions"`
}

func (c *conn) stats() (serverStats, error) {
	var st serverStats
	err := c.call(http.MethodGet, "/v1/stats", "", nil, &st)
	return st, err
}

// sseEvent is one received subscription event and when it was read.
type sseEvent struct {
	at      time.Time
	Type    string   `json:"type"`
	Results []result `json:"results"`
	Changes []result `json:"changes"`
	Removed []string `json:"removed"`
}

// sseReader consumes one subscription's event stream on its own
// connection, recording every event with its arrival time.
type sseReader struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []sseEvent
	err    error
}

// openSSE attaches to the subscription's stream and returns once the
// opening snapshot has been read.
func openSSE(base, id string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscriptions/"+id+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("attaching subscription stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("attaching subscription stream: status %d", resp.StatusCode)
	}
	s := &sseReader{cancel: cancel, done: make(chan struct{})}
	first := make(chan struct{})
	go s.read(resp.Body, first)
	select {
	case <-first:
	case <-s.done:
	case <-time.After(10 * time.Second):
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		s.cancel()
		<-s.done
		return nil, fmt.Errorf("subscription stream sent no snapshot: %v", s.err)
	}
	return s, nil
}

func (s *sseReader) read(body io.ReadCloser, first chan struct{}) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReaderSize(body, 1<<16)
	signalled := false
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err != io.EOF && !strings.Contains(err.Error(), "context canceled") {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		ev := sseEvent{at: time.Now()}
		if err := json.Unmarshal(data, &ev); err != nil {
			s.mu.Lock()
			s.err = fmt.Errorf("decoding event: %w", err)
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		s.events = append(s.events, ev)
		s.mu.Unlock()
		if !signalled {
			signalled = true
			close(first)
		}
	}
}

// snapshot copies the events received so far.
func (s *sseReader) snapshot() []sseEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sseEvent(nil), s.events...)
}

// lastAt is the arrival time of the latest event.
func (s *sseReader) lastAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[len(s.events)-1].at
}

// close detaches the stream and waits for the reader to exit.
func (s *sseReader) close() error {
	s.cancel()
	<-s.done
	return s.err
}
