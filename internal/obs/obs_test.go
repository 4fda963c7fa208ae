package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsInert: every method must be a no-op on the disabled
// tracer — the runtime calls them unguarded on cold paths.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Error("nil tracer reports On")
	}
	if tr.Now() != 0 || tr.At(time.Now()) != 0 {
		t.Error("nil tracer Now/At != 0")
	}
	tr.Emit(Event{Kind: KMisspec})
	tr.Instant(Event{Kind: KMisspec})
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should be the disabled tracer")
	}
	// At and Now share one timebase on a live tracer.
	live := NewTracer(NewCollector(1))
	if a, b, c := live.Now(), live.At(time.Now()), live.Now(); a > b || b > c {
		t.Errorf("At(now) = %d outside the surrounding Now readings [%d, %d]", b, a, c)
	}
}

// TestCollectorRingWrap: overflow must keep the newest events, report the
// drop count, and preserve emission order.
func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Kind: KMisspec, Iter: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Iter != want {
			t.Errorf("event %d: iter %d, want %d", i, ev.Iter, want)
		}
	}
	if c.Total() != 10 {
		t.Errorf("total %d, want 10", c.Total())
	}
	if c.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", c.Dropped())
	}
	c.Reset(4)
	if len(c.Events()) != 0 || c.Total() != 0 || c.Dropped() != 0 {
		t.Error("reset did not clear the collector")
	}
}

// TestCollectorResetRecyclesSmallBuffers: a reset collector starts a new
// stream that holds only its own events; it records them into the buffer
// it kept when that buffer has room for at most keep events, and grows a
// new one after a larger buffer was let go.
func TestCollectorResetRecyclesSmallBuffers(t *testing.T) {
	c := NewCollector(256)
	fill := func(n int, iter int64) {
		for i := 0; i < n; i++ {
			c.Emit(Event{Kind: KMisspec, Iter: iter, Cause: "old"})
		}
	}
	fill(20, 1)
	c.Reset(64)
	fill(3, 2)
	evs := c.Events()
	if len(evs) != 3 || c.Total() != 3 {
		t.Fatalf("after reset: %d events retained, %d total, want 3 and 3", len(evs), c.Total())
	}
	for _, ev := range evs {
		if ev.Iter != 2 {
			t.Fatalf("a reset collector returned an event of the stream before it: %+v", ev)
		}
	}
	if testing.AllocsPerRun(10, func() { c.Reset(64); fill(20, 3) }) != 0 {
		t.Error("a stream no longer than the kept buffer allocated")
	}
	fill(80, 4) // grows the buffer past 64 events
	c.Reset(64)
	if cap(c.buf) != 0 {
		t.Errorf("a buffer of %d events survived a reset that keeps 64", cap(c.buf))
	}
}

// TestCollectorConcurrentEmit: workers emit from their own goroutines.
func TestCollectorConcurrentEmit(t *testing.T) {
	c := NewCollector(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Emit(Event{Kind: KContribute, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	if c.Total() != 800 {
		t.Errorf("total %d, want 800", c.Total())
	}
}

// TestChromeTraceShape: the export must be valid JSON with the
// trace_event envelope, complete slices for durations and instants
// otherwise.
func TestChromeTraceShape(t *testing.T) {
	events := []Event{
		{Kind: KRegionInvoke, TimeNS: 1000, DurNS: 5000, Invocation: 0, Worker: -1, Iter: -1, A: 0, B: 40},
		{Kind: KMisspec, TimeNS: 2000, Invocation: 0, Worker: 2, Iter: 7, Cause: "privacy violated (fast phase)"},
		{Kind: KJobPhase, TimeNS: 0, DurNS: 100, Invocation: -1, Worker: -1, Iter: -1, Cause: PhaseQueued},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	if ph := doc.TraceEvents[0]["ph"]; ph != "X" {
		t.Errorf("duration event phase %v, want X", ph)
	}
	if ph := doc.TraceEvents[1]["ph"]; ph != "i" {
		t.Errorf("instant event phase %v, want i", ph)
	}
	if name := doc.TraceEvents[1]["name"]; !strings.Contains(name.(string), "misspec") {
		t.Errorf("misspec event name %v", name)
	}
	if name := doc.TraceEvents[2]["name"]; name != "job-phase: queued" {
		t.Errorf("job-phase event name %v, want kind refined by its cause", name)
	}
}
