package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a lock-cheap metrics registry. Metric handles (Counter,
// Gauge, Histogram) are resolved once, up front, under the registry lock;
// after that every update is a single atomic add, so handles are safe to
// use from worker hot paths. A scrape (WriteProm) runs registered
// collector callbacks first, so subsystems that already keep atomic
// counters can publish pull-style at scrape time for zero steady-state
// cost.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	mu     sync.Mutex
	series map[string]*series
}

// series is one (name, labels) time series.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	val    int64  // atomic; int64 counters/gauges
	fval   uint64 // atomic; math.Float64bits for func-backed gauges
	fn     func() float64
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// RegisterCollector adds a callback run (under the registry lock) before
// every scrape. Collectors pull values out of subsystem-owned atomics and
// push them into gauges/counters, so the instrumented code pays nothing
// between scrapes.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// getFamily finds or creates the named family. The first registration
// fixes help and type; later registrations with a different type reuse the
// existing family unchanged.
func (r *Registry) getFamily(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	}
	return f
}

// getSeries finds or creates the series for the rendered label set.
func (f *family) getSeries(labels string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		f.series[labels] = s
	}
	return s
}

// renderLabels turns alternating key, value pairs into the exposition-form
// label block, escaping values. Keys are sorted for a stable series key.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// Counter is a monotonically increasing int64 metric handle. The zero
// Counter is inert: Add and Inc are no-ops, Value returns 0.
type Counter struct{ s *series }

// Add increments the counter by n.
func (c Counter) Add(n int64) {
	if c.s != nil {
		atomic.AddInt64(&c.s.val, n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Set stores the counter's value directly. It exists for pull-style
// collectors that mirror an externally maintained monotone total at scrape
// time; values must never decrease.
func (c Counter) Set(v int64) {
	if c.s != nil {
		atomic.StoreInt64(&c.s.val, v)
	}
}

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.s == nil {
		return 0
	}
	return atomic.LoadInt64(&c.s.val)
}

// Gauge is a settable int64 metric handle. The zero Gauge is inert.
type Gauge struct{ s *series }

// Set stores the gauge value.
func (g Gauge) Set(v int64) {
	if g.s != nil {
		atomic.StoreInt64(&g.s.val, v)
	}
}

// Add adjusts the gauge by delta.
func (g Gauge) Add(delta int64) {
	if g.s != nil {
		atomic.AddInt64(&g.s.val, delta)
	}
}

// Value returns the current gauge value.
func (g Gauge) Value() int64 {
	if g.s == nil {
		return 0
	}
	return atomic.LoadInt64(&g.s.val)
}

// Counter registers (or finds) a counter series. labels are alternating
// key, value pairs. Safe on a nil registry (returns an inert handle).
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	if r == nil {
		return Counter{}
	}
	f := r.getFamily(name, help, "counter")
	return Counter{s: f.getSeries(renderLabels(labels))}
}

// Gauge registers (or finds) a gauge series. Safe on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	if r == nil {
		return Gauge{}
	}
	f := r.getFamily(name, help, "gauge")
	return Gauge{s: f.getSeries(renderLabels(labels))}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Safe on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, "gauge")
	s := f.getSeries(renderLabels(labels))
	s.fn = fn
}

// Histogram is a fixed-bucket histogram with atomic counts. Buckets are
// cumulative at export, per the Prometheus exposition format.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []int64   // atomic; len(bounds)+1, last is the +Inf bucket
	sum    int64     // atomic; sum of observed values
	n      int64     // atomic; observation count
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, float64(v))
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.n, 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.n)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.sum)
}

// DefBuckets is the default histogram bucket layout: powers of four from
// 256 up, wide enough for byte counts and nanosecond durations alike.
var DefBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// LatencyBuckets is the bucket layout for nanosecond latency histograms:
// powers of four from ~4 µs to ~69 s, wide enough that queue-dominated
// service jobs (p99 approaching a minute under oversubscription) still land
// below the +Inf bucket.
var LatencyBuckets = []float64{
	1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24,
	1 << 26, 1 << 28, 1 << 30, 1 << 32, 1 << 34, 1 << 36,
}

// Histogram registers (or finds) a histogram series with the given upper
// bounds (nil means DefBuckets). Safe on a nil registry (returns nil,
// which Observe tolerates).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.getFamily(name, help, "histogram")
	s := f.getSeries(renderLabels(labels))
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.hist == nil {
		s.hist = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	}
	return s.hist
}

// snapshotFamilies runs registered collectors (outside the registry lock,
// so they may register new series) and returns the families sorted by
// name.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	cols := make([]func(), len(r.collectors))
	copy(cols, r.collectors)
	r.mu.Unlock()
	for _, fn := range cols {
		fn()
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// formatValue renders a float in exposition form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm writes every metric in the Prometheus text exposition format
// (version 0.0.4). Collector callbacks run first. Safe on a nil registry.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			s := f.series[k]
			switch {
			case f.typ == "histogram":
				// Every series under a histogram-typed family must render
				// in histogram form — including series created by a
				// mistyped registration that carry no *Histogram — or the
				// exposition emits bare lines that scrapers reject.
				writeHist(w, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
			default:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, atomic.LoadInt64(&s.val))
			}
		}
		f.mu.Unlock()
	}
}

// writeHist emits one histogram series: cumulative buckets, sum, count. A
// series with no histogram attached (a mistyped registration under a
// histogram family) renders as an empty histogram — a lone +Inf bucket,
// zero sum and count — which is still format-valid.
func writeHist(w io.Writer, name string, s *series) {
	h := s.hist
	base := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	joint := func(le string) string {
		if base == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`{%s,le="%s"}`, base, le)
	}
	if h == nil {
		fmt.Fprintf(w, "%s_bucket%s 0\n", name, joint("+Inf"))
		fmt.Fprintf(w, "%s_sum%s 0\n", name, s.labels)
		fmt.Fprintf(w, "%s_count%s 0\n", name, s.labels)
		return
	}
	var cum int64
	for i, b := range h.bounds {
		cum += atomic.LoadInt64(&h.counts[i])
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, joint(formatValue(b)), cum)
	}
	cum += atomic.LoadInt64(&h.counts[len(h.bounds)])
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, joint("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, s.labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
}
