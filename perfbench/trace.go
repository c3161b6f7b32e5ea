package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin; parent indexes the span list (-1 for none);
// req is the request id shared by the client and handler spans of one
// HTTP request; user is the ranked or updated user; conn names the client
// connection a handler span served.
type span struct {
	name       string
	start, end int64
	parent     int
	req        string
	user       string
	conn       string
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every recorded span, so the summary covers only the
// measured window.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// link sets the parent of every backend span to the handler span that
// made the call. The HTTP server handles one connection's requests one
// after another, so per connection at most one handler span contains a
// given instant; among connections the call belongs to the containing
// handler span for the same user, preferring one not yet linked (two
// connections may serve the same user at once). Linking after the run
// keeps the serving path free of goroutine-identity lookups.
func link(spans []span) {
	byConn := map[string][]int{}
	for i, s := range spans {
		spans[i].parent = -1
		if strings.HasPrefix(s.name, "handler.") {
			byConn[s.conn] = append(byConn[s.conn], i)
		}
	}
	for _, hs := range byConn {
		sort.Slice(hs, func(a, b int) bool { return spans[hs[a]].start < spans[hs[b]].start })
	}
	linked := map[int]bool{}
	for i := range spans {
		b := &spans[i]
		if !strings.HasPrefix(b.name, "backend.") {
			continue
		}
		best := -1
		for _, hs := range byConn {
			k := sort.Search(len(hs), func(k int) bool { return spans[hs[k]].start > b.start }) - 1
			if k < 0 {
				continue
			}
			h := spans[hs[k]]
			if h.end < b.end || h.user != b.user {
				continue
			}
			if best < 0 || (linked[best] && !linked[hs[k]]) {
				best = hs[k]
			}
		}
		b.parent = best
		linked[best] = true
	}
}

// selfTime is the part of parent's interval not covered by any child,
// where children may overlap each other, nest, or extend past the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	for i, v := range iv {
		switch {
		case i == 0:
			curS, curE = v[0], v[1]
		case v[0] <= curE:
			curE = max(curE, v[1])
		default:
			covered += curE - curS
			curS, curE = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// overlapping returns the spans of candidates that intersect parent's
// interval (the journal's fsyncs run on its group-commit goroutine, so
// they are attributed to a session apply by time, not by goroutine).
func overlapping(parent span, candidates []span) []span {
	var out []span
	lo := sort.Search(len(candidates), func(i int) bool { return candidates[i].end > parent.start })
	for _, c := range candidates[lo:] {
		if c.start >= parent.end {
			break
		}
		out = append(out, c)
	}
	return out
}

// writeSpans writes the spans as CSV (name,start_ns,end_ns,parent,req,user).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req,user")
	for _, s := range spans {
		w.WriteString(s.name)
		w.WriteByte(',')
		w.WriteString(strconv.FormatInt(s.start, 10))
		w.WriteByte(',')
		w.WriteString(strconv.FormatInt(s.end, 10))
		w.WriteByte(',')
		w.WriteString(strconv.Itoa(s.parent))
		w.WriteByte(',')
		w.WriteString(s.req)
		w.WriteByte(',')
		w.WriteString(s.user)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the q-quantile (0..1) of xs by the nearest-rank method; xs
// is sorted in place. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(ns int64) float64 { return float64(ns) / 1e3 }
