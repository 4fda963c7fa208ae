package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestCollectorLazyGrowth: the ring must allocate only what it records —
// a collector with a large capacity and three events retains three events —
// and still wrap correctly once the capacity is reached.
func TestCollectorLazyGrowth(t *testing.T) {
	c := NewCollector(1 << 20)
	for i := 0; i < 3; i++ {
		c.Emit(Event{Kind: KCheckpoint, Iter: int64(i)})
	}
	if c.Len() != 3 || c.Dropped() != 0 {
		t.Fatalf("len %d dropped %d, want 3, 0", c.Len(), c.Dropped())
	}

	small := NewCollector(4)
	for i := 0; i < 10; i++ {
		small.Emit(Event{Kind: KCheckpoint, Iter: int64(i)})
	}
	if small.Len() != 4 {
		t.Fatalf("len %d after wrap, want 4", small.Len())
	}
	if small.Total() != 10 || small.Dropped() != 6 {
		t.Fatalf("total %d dropped %d, want 10, 6", small.Total(), small.Dropped())
	}
	evs := small.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.Iter != want {
			t.Fatalf("event %d has iter %d, want %d (oldest-first order)", i, ev.Iter, want)
		}
	}
}

// TestCollectorConcurrentOverflow (-race): concurrent emitters into a
// small ring must never lose count — total equals emissions, dropped
// equals total minus capacity.
func TestCollectorConcurrentOverflow(t *testing.T) {
	const goroutines, perG = 8, 500
	c := NewCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Emit(Event{Kind: KCheckpoint, Worker: g, Iter: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if c.Total() != goroutines*perG {
		t.Fatalf("total %d, want %d", c.Total(), goroutines*perG)
	}
	if got, want := c.Dropped(), int64(goroutines*perG-64); got != want {
		t.Fatalf("dropped %d, want %d", got, want)
	}
	if c.Len() != 64 {
		t.Fatalf("retained %d, want 64", c.Len())
	}
}

// TestWriteJobTrace: the job trace document must be valid Chrome
// trace_event JSON carrying the process metadata naming the job and every
// raw event, in order, and nothing synthesized from them.
func TestWriteJobTrace(t *testing.T) {
	events := []Event{
		{Kind: KJobPhase, Cause: PhaseQueued, TimeNS: 0, DurNS: 100, Worker: -1, Invocation: -1, Iter: -1},
		{Kind: KSpawn, TimeNS: 100, DurNS: 50, Worker: -1, Iter: -1, Cause: "warm", A: 4, B: 4},
		{Kind: KWorkerJoin, TimeNS: 150, DurNS: 400, Worker: 0, Iter: -1},
	}
	var buf bytes.Buffer
	if err := WriteJobTrace(&buf, "j000042", events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("job trace is not valid JSON: %v\n%s", err, buf.String())
	}
	want := []string{"process_name", "job-phase: queued", "spawn: warm", "worker-join"}
	if len(doc.TraceEvents) != len(want) {
		t.Fatalf("%d trace events, want %d: %+v", len(doc.TraceEvents), len(want), doc.TraceEvents)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name != want[i] {
			t.Errorf("trace event %d is %q, want %q", i, ev.Name, want[i])
		}
	}
	if head := doc.TraceEvents[0]; head.Phase != "M" || head.Args["name"] != "job j000042" {
		t.Errorf("metadata record %+v, want process_name \"job j000042\"", head)
	}
}

// TestFlightRecorder: the ring must evict oldest-first, snapshot
// newest-first, and count by reason across evictions.
func TestFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(2)
	for i := 0; i < 3; i++ {
		fr.Record(Postmortem{JobID: fmt.Sprintf("j%d", i), Reason: "misspec"})
	}
	fr.Record(Postmortem{JobID: "j3", Reason: "failed"})
	st := fr.State()
	if st.Total != 4 || st.Retained != 2 || st.Capacity != 2 {
		t.Fatalf("total %d retained %d cap %d, want 4, 2, 2", st.Total, st.Retained, st.Capacity)
	}
	if st.Postmortems[0].JobID != "j3" || st.Postmortems[1].JobID != "j2" {
		t.Fatalf("snapshot order %s, %s; want j3, j2 (newest first)",
			st.Postmortems[0].JobID, st.Postmortems[1].JobID)
	}
	if st.ByReason["misspec"] != 3 || st.ByReason["failed"] != 1 {
		t.Fatalf("by-reason %v", st.ByReason)
	}

	// Metrics surface through a registry scrape.
	reg := NewRegistry()
	fr.PublishMetrics(reg)
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, "privateer_flight_retained 2") {
		t.Errorf("missing retained gauge:\n%s", out)
	}
	if !strings.Contains(out, `privateer_flight_postmortems_total{reason="misspec"} 3`) {
		t.Errorf("missing per-reason counter:\n%s", out)
	}

	// A nil recorder is inert everywhere.
	var nilFR *FlightRecorder
	nilFR.Record(Postmortem{})
	if nilFR.Total() != 0 || nilFR.Snapshot() != nil {
		t.Error("nil recorder must be inert")
	}
	nilFR.PublishMetrics(reg)
}

// TestFlightMetricsCountEachReason: once published, every Record moves its
// reason's privateer_flight_postmortems_total series, and a scrape reads
// each reason's own count and the retained-ring size, also after the ring
// has evicted postmortems the counts still include.
func TestFlightMetricsCountEachReason(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(3)
	fr.PublishMetrics(reg)
	scrape := func() string {
		var buf bytes.Buffer
		reg.WriteProm(&buf)
		return buf.String()
	}
	for _, reason := range []string{"misspec", "rejected", "misspec"} {
		fr.Record(Postmortem{Reason: reason})
	}
	out := scrape()
	for _, want := range []string{
		`privateer_flight_postmortems_total{reason="misspec"} 2`,
		`privateer_flight_postmortems_total{reason="rejected"} 1`,
		"privateer_flight_retained 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first scrape lacks %q:\n%s", want, out)
		}
	}
	for i := 0; i < 3; i++ {
		fr.Record(Postmortem{Reason: "rejected"})
	}
	out = scrape()
	for _, want := range []string{
		`privateer_flight_postmortems_total{reason="misspec"} 2`,
		`privateer_flight_postmortems_total{reason="rejected"} 4`,
		"privateer_flight_retained 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("second scrape lacks %q:\n%s", want, out)
		}
	}
}

// TestHealthzReadyz: /healthz always answers 200; /readyz follows the
// installed probe and defaults to ready without one.
func TestHealthzReadyz(t *testing.T) {
	s := NewServer(NewRegistry())
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz with no probe: status %d, want 200", rec.Code)
	}
	ready := true
	s.SetReady(func() bool { return ready })
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz ready: status %d", rec.Code)
	}
	ready = false
	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz draining: status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("/readyz draining body %q", rec.Body.String())
	}
}

// TestHistogramExpositionThroughHandler: a histogram scraped through the
// real /metrics handler must carry a +Inf bucket, _sum and _count — and a
// mistyped series under the same family (the exposition gap) must render
// as an empty histogram rather than a bare invalid line.
func TestHistogramExpositionThroughHandler(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_lat_ns", "latency", LatencyBuckets, "tenant", "a")
	h.Observe(5000)
	h.Observe(1 << 35)
	// Provoke the gap: a counter registration against the histogram name
	// creates a series with no *Histogram under the histogram family.
	reg.Counter("t_lat_ns", "latency", "tenant", "b").Add(7)

	s := NewServer(reg)
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`t_lat_ns_bucket{tenant="a",le="+Inf"} 2`,
		`t_lat_ns_sum{tenant="a"}`,
		`t_lat_ns_count{tenant="a"} 2`,
		`t_lat_ns_bucket{tenant="b",le="+Inf"} 0`,
		`t_lat_ns_sum{tenant="b"} 0`,
		`t_lat_ns_count{tenant="b"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	// Every non-comment line must parse as "name{labels} value" — the
	// same shape gate CI runs against the live endpoint.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("bad exposition line %q", line)
		}
	}
}
