// Package metrics is a zero-dependency Prometheus-text-exposition metric
// registry for the serving layer: counters, gauges and fixed-bucket
// histograms, all backed by atomics so observation on the rank hot path is
// a handful of atomic adds and a scrape never takes a lock that request
// traffic contends (the same lock-free discipline as the serve stats
// collection, see DESIGN.md §3.5).
//
// Two kinds of series exist:
//
//   - Static instruments (Counter, Gauge, Histogram and their label Vec
//     forms) are registered once at startup and updated by request
//     middleware; the registry renders them on every scrape.
//   - Collectors are callbacks invoked per scrape to emit series derived
//     from existing state — the serve layer uses one to turn a single
//     Backend.Stats() snapshot into QPS/cache/journal series
//     without double bookkeeping.
//
// The exposition format is the Prometheus text format (version 0.0.4):
// "# HELP"/"# TYPE" headers followed by samples, histograms rendered as
// cumulative le-labeled _bucket series plus _sum and _count. Families
// render in registration order and Vec children in sorted label order, so
// output is deterministic (golden-testable).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE validates metric and label names (the Prometheus identifier
// grammar, without the colon forms reserved for recording rules).
var nameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Registry holds registered metric families and scrape collectors.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []CollectorFunc
}

// CollectorFunc emits dynamically derived series on every scrape. The
// families it writes must not collide with statically registered names.
type CollectorFunc func(w *Writer)

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric family with its children keyed by label
// values.
type family struct {
	name   string
	help   string
	typ    string   // "counter", "gauge", "histogram"
	labels []string // label names for Vec families; nil for singletons

	mu       sync.Mutex
	children map[string]sample // label-values key -> child
	order    []string          // insertion keys, sorted at render time
}

// sample is anything that can render its current value(s).
type sample interface {
	write(w *Writer, name string, labels []string, values []string)
}

// register adds a family or panics on invalid/duplicate names —
// registration happens once at startup, where a panic is an immediate,
// attributable configuration error rather than a silently dropped metric.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, children: map[string]sample{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Collect registers a per-scrape collector callback.
func (r *Registry) Collect(fn CollectorFunc) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing integer-valued counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which must be non-negative; counters only go up).
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) write(w *Writer, name string, labels, values []string) {
	w.sample(name, labels, values, float64(c.n.Load()))
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.children[""] = c
	f.order = []string{""}
	return c
}

// CounterVec registers a counter family with the given label names.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// With returns the child counter for the given label values, creating it
// on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() sample { return &Counter{} }).(*Counter)
}

// --- gauge -----------------------------------------------------------------

// Gauge is a float-valued gauge (atomic float64 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop over the float bits).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w *Writer, name string, labels, values []string) {
	w.sample(name, labels, values, g.Value())
}

// Gauge registers a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	g := &Gauge{}
	f.children[""] = g
	f.order = []string{""}
	return g
}

// gaugeFunc renders a callback's value at scrape time.
type gaugeFunc func() float64

func (g gaugeFunc) write(w *Writer, name string, labels, values []string) {
	w.sample(name, labels, values, g())
}

// GaugeFunc registers a gauge whose value is computed at each scrape.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.children[""] = gaugeFunc(fn)
	f.order = []string{""}
}

// --- histogram -------------------------------------------------------------

// Histogram counts observations into fixed cumulative buckets. Buckets are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Observe is wait-free: one binary search plus two atomic adds and a
// CAS loop for the float sum.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // per-bucket (non-cumulative) counts; last = +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending: %v", buckets))
		}
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	return &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v (le is inclusive).
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w *Writer, name string, labels, values []string) {
	// Fresh slices: appending to the caller's label slices in place could
	// alias their backing arrays across bucket lines.
	ls := append(append(make([]string, 0, len(labels)+1), labels...), "le")
	vs := append(make([]string, 0, len(values)+1), values...)
	var cum uint64
	for i, b := range h.upper {
		cum += h.buckets[i].Load()
		w.sample(name+"_bucket", ls, append(vs, formatFloat(b)), float64(cum))
	}
	cum += h.buckets[len(h.upper)].Load()
	w.sample(name+"_bucket", ls, append(vs, "+Inf"), float64(cum))
	w.sample(name+"_sum", labels, values, h.Sum())
	w.sample(name+"_count", labels, values, float64(cum))
}

// Histogram registers a label-less histogram over the given bucket upper
// bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(buckets)
	f.children[""] = h
	f.order = []string{""}
	return h
}

// HistogramVec is a labeled histogram family; every child shares the same
// bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: HistogramVec %q needs at least one label", name))
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labels), buckets: buckets}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() sample { return newHistogram(v.buckets) }).(*Histogram)
}

// --- vec children ----------------------------------------------------------

// child returns (creating on first use) the family's child for the label
// values. The fast path is one map read under the family mutex — a scrape
// holds the same mutex only long enough to copy the key list, so request
// traffic never queues behind rendering I/O.
func (f *family) child(values []string, make func() sample) sample {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	f.mu.Unlock()
	return c
}

// --- exposition ------------------------------------------------------------

// ContentType is the scrape response content type (Prometheus text format).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo renders every family and collector in the text exposition
// format.
func (r *Registry) WriteTo(out io.Writer) (int64, error) {
	w := &Writer{out: out}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	collectors := append([]CollectorFunc(nil), r.collectors...)
	r.mu.Unlock()
	for _, f := range families {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]sample, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		// Sorted label order keeps output deterministic regardless of the
		// order children were first touched in.
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		w.Family(f.name, f.typ, f.help)
		for _, i := range idx {
			var values []string
			if len(f.labels) > 0 {
				values = strings.Split(keys[i], "\xff")
			}
			children[i].write(w, f.name, f.labels, values)
		}
	}
	for _, fn := range collectors {
		fn(w)
	}
	return w.n, w.err
}

// Handler returns an http.Handler serving the exposition — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = r.WriteTo(w)
	})
}

// Writer renders exposition lines; collectors receive one per scrape.
// Errors are sticky: the first write failure suppresses the rest.
type Writer struct {
	out io.Writer
	n   int64
	err error
}

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	n, err := fmt.Fprintf(w.out, format, args...)
	w.n += int64(n)
	w.err = err
}

// Family writes the # HELP / # TYPE header for a family. Call it once
// before the family's samples.
func (w *Writer) Family(name, typ, help string) {
	w.printf("# HELP %s %s\n", name, escapeHelp(help))
	w.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line; kv is an alternating label key/value
// list.
func (w *Writer) Sample(name string, value float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("metrics: Sample needs alternating label key/value pairs")
	}
	labels := make([]string, 0, len(kv)/2)
	values := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, kv[i])
		values = append(values, kv[i+1])
	}
	w.sample(name, labels, values, value)
}

// Histogram writes a full histogram family body (cumulative buckets from
// raw per-bucket counts whose last element is the +Inf overflow, then _sum
// and _count) under the given labels. bounds and counts line up as
// len(counts) == len(bounds)+1; a nil counts writes an all-zero histogram.
func (w *Writer) Histogram(name string, bounds []float64, counts []int64, sum float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("metrics: Histogram needs alternating label key/value pairs")
	}
	var cum int64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		w.Sample(name+"_bucket", float64(cum), append(kv, "le", formatFloat(b))...)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	w.Sample(name+"_bucket", float64(cum), append(kv, "le", "+Inf")...)
	w.Sample(name+"_sum", sum, kv...)
	w.Sample(name+"_count", float64(cum), kv...)
}

func (w *Writer) sample(name string, labels, values []string, v float64) {
	if len(labels) == 0 {
		w.printf("%s %s\n", name, formatFloat(v))
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	w.printf("%s %s\n", b.String(), formatFloat(v))
}

// formatFloat renders a value the way Prometheus text format expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
