// Package metrics is a small, dependency-free metrics layer for the
// serving tier: counters, gauges, and fixed-bucket histograms, with
// label support via pre-registered child series, rendered in the
// Prometheus text exposition format.
//
// The design optimizes the write side: every instrument is a pointer
// whose hot-path operation is one or two atomic adds — no maps, no
// locks, no allocation. Labeled families (vecs) resolve their children
// once, at registration time, so instrumented code holds the child
// pointer and pays nothing per observation; With is still safe (and
// cheap — a read-locked map hit) for callers that resolve lazily.
// Series whose truth already lives elsewhere (an existing atomic, a
// queue length) register as func-backed children read at scrape time,
// so the metrics layer never duplicates state it can observe.
//
// Every instrument method is nil-receiver safe: a nil *Counter,
// *Gauge, or *Histogram no-ops, which lets an entire instrumentation
// layer be disabled (for overhead benchmarking) by leaving its struct
// fields nil.
//
// Rendering (WriteText, Handler) is deterministic: families sort by
// name, children by label values, so successive scrapes of identical
// state are byte-identical — the property the rendering tests pin.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with its children (one per label tuple;
// exactly one unlabeled child for scalar metrics).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// child is one series: either live instrument state (value / histogram
// arrays) or a read-at-scrape func.
type child struct {
	labelValues []string
	fn          func() float64 // non-nil: func-backed, rest unused

	value   atomic.Uint64  // counter: int64 bits; gauge: float64 bits
	buckets []atomic.Int64 // histograms: per-bucket (non-cumulative), +Inf last
	sum     atomic.Uint64  // histograms: float64 bits, CAS-added
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates (or fails on a duplicate of) a family. Metric and
// label names are programmer-controlled, so invalid or duplicate
// registration panics rather than returning an error nobody checks.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q for %s", l, name))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), bounds: bounds,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.families[name] = f
	return f
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// childFor resolves (registering if needed) the child for values.
// fn != nil makes the child func-backed.
func (f *family) childFor(values []string, fn func() float64) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...), fn: fn}
	if f.kind == KindHistogram {
		c.buckets = make([]atomic.Int64, len(f.bounds)+1)
	}
	f.children[key] = c
	return c
}

// ---- counters ----------------------------------------------------------

// Counter is a monotonically increasing integer.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.c.value.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return int64(c.c.value.Load())
}

// Counter registers a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return &Counter{c: f.childFor(nil, nil)}
}

// CounterFunc registers a scalar counter whose value is read from fn at
// scrape time — for counts whose truth already lives in another atomic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.childFor(nil, fn)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns (registering on first use) the child for values. Resolve
// once and keep the pointer on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{c: v.f.childFor(values, nil)}
}

// Func registers a func-backed child for values, read at scrape time.
func (v *CounterVec) Func(fn func() float64, values ...string) {
	v.f.childFor(values, fn)
}

// ---- gauges ------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.c.value.Store(math.Float64bits(v))
}

// Add adds d (CAS loop; gauges are low-frequency instruments).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.c.value.Load()
		if g.c.value.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.c.value.Load())
}

// Gauge registers a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return &Gauge{c: f.childFor(nil, nil)}
}

// GaugeFunc registers a scalar gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.childFor(nil, fn)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns (registering on first use) the child for values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{c: v.f.childFor(values, nil)}
}

// Func registers a func-backed child for values, read at scrape time.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.childFor(values, fn)
}

// ---- histograms --------------------------------------------------------

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	c      *child
	bounds []float64
}

// Observe records v: one atomic add on the owning bucket, one CAS add
// on the sum. Concurrent scrapes may see the bucket before the sum —
// the usual, accepted histogram skew.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) = +Inf
	h.c.buckets[i].Add(1)
	for {
		old := h.c.sum.Load()
		if h.c.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.c.buckets {
		n += h.c.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.c.sum.Load())
}

// checkBounds validates histogram bucket bounds once, at registration.
func checkBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly increasing", name))
		}
	}
	return append([]float64(nil), bounds...)
}

// Histogram registers a scalar histogram over the given bucket upper
// bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	b := checkBounds(name, bounds)
	f := r.register(name, help, KindHistogram, nil, b)
	return &Histogram{c: f.childFor(nil, nil), bounds: f.bounds}
}

// HistogramVec is a labeled histogram family sharing one bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with the given bounds and
// label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	b := checkBounds(name, bounds)
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, b)}
}

// With returns (registering on first use) the child for values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{c: v.f.childFor(values, nil), bounds: v.f.bounds}
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// growing by factor — the fixed exponential layout latency histograms
// use (e.g. ExpBuckets(0.001, 2, 14) spans 1ms..8.2s).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// ---- rendering ---------------------------------------------------------

// WriteText renders every family in the Prometheus text exposition
// format, deterministically ordered: families by name, children by
// label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.renderTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ContentType is the media type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving WriteText — mount as
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}

func (f *family) renderTo(b *strings.Builder) {
	f.mu.RLock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.RUnlock()
	if len(kids) == 0 {
		return
	}
	sort.Slice(kids, func(i, j int) bool {
		return lessStrings(kids[i].labelValues, kids[j].labelValues)
	})
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(string(f.kind))
	b.WriteByte('\n')
	for _, c := range kids {
		switch f.kind {
		case KindHistogram:
			f.renderHistogram(b, c)
		case KindCounter:
			if c.fn != nil {
				writeSample(b, f.name, f.labels, c.labelValues, "", "", formatFloat(c.fn()))
			} else {
				writeSample(b, f.name, f.labels, c.labelValues, "", "", strconv.FormatInt(int64(c.value.Load()), 10))
			}
		default: // gauge
			v := math.Float64frombits(c.value.Load())
			if c.fn != nil {
				v = c.fn()
			}
			writeSample(b, f.name, f.labels, c.labelValues, "", "", formatFloat(v))
		}
	}
}

// renderHistogram emits the cumulative _bucket series, _sum, and
// _count. All bucket loads happen before cumulation, so the rendered
// buckets are always monotone and _count equals the +Inf bucket.
func (f *family) renderHistogram(b *strings.Builder, c *child) {
	counts := make([]int64, len(c.buckets))
	for i := range c.buckets {
		counts[i] = c.buckets[i].Load()
	}
	var cum int64
	for i, bound := range f.bounds {
		cum += counts[i]
		writeSample(b, f.name+"_bucket", f.labels, c.labelValues, "le", formatFloat(bound), strconv.FormatInt(cum, 10))
	}
	cum += counts[len(counts)-1]
	writeSample(b, f.name+"_bucket", f.labels, c.labelValues, "le", "+Inf", strconv.FormatInt(cum, 10))
	writeSample(b, f.name+"_sum", f.labels, c.labelValues, "", "", formatFloat(math.Float64frombits(c.sum.Load())))
	writeSample(b, f.name+"_count", f.labels, c.labelValues, "", "", strconv.FormatInt(cum, 10))
}

// writeSample renders one line: name{labels...} value. extraName/Value
// append a trailing synthetic label (the histogram "le").
func writeSample(b *strings.Builder, name string, labels, values []string, extraName, extraValue, rendered string) {
	b.WriteString(name)
	if len(labels) > 0 || extraName != "" {
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
		if extraName != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(rendered)
	b.WriteByte('\n')
}

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
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
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
