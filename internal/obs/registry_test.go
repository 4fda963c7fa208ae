package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics: handles for the same (name, labels) share one
// series, and Add/Inc/Set/Value behave atomically.
func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("t_ops_total", "ops")
	c2 := reg.Counter("t_ops_total", "ops")
	c1.Add(3)
	c2.Inc()
	if got := c1.Value(); got != 4 {
		t.Errorf("counter value %d, want 4 (handles must share the series)", got)
	}
	g := reg.Gauge("t_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge value %d, want 5", got)
	}
	c1.Set(10)
	if got := c2.Value(); got != 10 {
		t.Errorf("counter after Set %d, want 10", got)
	}
}

// TestLabelsDistinguishSeries: different label values are different series,
// and label order does not matter (keys are sorted into the series key).
func TestLabelsDistinguishSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_labeled_total", "h", "op", "add")
	b := reg.Counter("t_labeled_total", "h", "op", "sub")
	a.Add(1)
	b.Add(2)
	if a.Value() == b.Value() {
		t.Error("distinct label values must be distinct series")
	}
	x := reg.Counter("t_pair_total", "h", "k1", "v1", "k2", "v2")
	y := reg.Counter("t_pair_total", "h", "k2", "v2", "k1", "v1")
	x.Inc()
	if got := y.Value(); got != 1 {
		t.Errorf("reordered labels read %d, want 1 (same series)", got)
	}
}

// TestNilRegistrySafe: every constructor and writer must be a no-op on a
// nil registry, and the inert handles must tolerate use.
func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("t_x", "h")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("inert counter must read 0")
	}
	g := reg.Gauge("t_y", "h")
	g.Set(3)
	if g.Value() != 0 {
		t.Error("inert gauge must read 0")
	}
	h := reg.Histogram("t_z", "h", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must be inert")
	}
	reg.GaugeFunc("t_f", "h", func() float64 { return 1 })
	reg.RegisterCollector(func() {})
	reg.WriteProm(io.Discard)
}

// TestWritePromFormat: exposition output carries HELP/TYPE headers, sorted
// families, and escaped label values.
func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_b_total", "second family").Add(2)
	reg.Counter("t_a_total", "first family", "path", "a\\b\"c\nd").Inc()
	reg.GaugeFunc("t_c_rate", "computed", func() float64 { return 0.5 })
	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP t_a_total first family\n",
		"# TYPE t_a_total counter\n",
		`t_a_total{path="a\\b\"c\nd"} 1`,
		"t_b_total 2",
		"# TYPE t_c_rate gauge\n",
		"t_c_rate 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "t_a_total") > strings.Index(out, "t_b_total") {
		t.Error("families must be sorted by name")
	}
}

// TestHistogramExposition: buckets are cumulative, +Inf closes the series,
// and sum/count lines agree with the observations.
func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_lat_ns", "latency", []float64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("count/sum = %d/%d, want 3/555", h.Count(), h.Sum())
	}
	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		`t_lat_ns_bucket{le="10"} 1`,
		`t_lat_ns_bucket{le="100"} 2`,
		`t_lat_ns_bucket{le="+Inf"} 3`,
		"t_lat_ns_sum 555",
		"t_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCollectorsRunOnScrape: registered collectors must run before every
// export so pull-style metrics are fresh.
func TestCollectorsRunOnScrape(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("t_pull", "pulled at scrape")
	src := int64(0)
	reg.RegisterCollector(func() { g.Set(src) })
	src = 41
	var sb strings.Builder
	reg.WriteProm(&sb)
	if !strings.Contains(sb.String(), "t_pull 41") {
		t.Errorf("collector did not run before WriteProm:\n%s", sb.String())
	}
	src = 42
	sb.Reset()
	reg.WriteProm(&sb)
	if !strings.Contains(sb.String(), "t_pull 42") {
		t.Errorf("collector did not run again on the second scrape:\n%s", sb.String())
	}
}

// TestRegistryConcurrentUse: handle updates, series creation, and scrapes
// must be safe to run concurrently (exercised under -race in CI).
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_conc_hist", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("t_conc_total", "h", "worker", string(rune('a'+w)))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			reg.WriteProm(io.Discard)
		}
	}()
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("histogram count %d, want 4000", h.Count())
	}
}
