package specrt

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/obs"
)

// TestSnapshotMatchesStats: after a quiesced run the atomic snapshot must
// equal the plain struct read.
func TestSnapshotMatchesStats(t *testing.T) {
	mod := buildWriterModule(16)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4, MisspecRate: 0.2, Seed: 7}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats.Snapshot(); got != rt.Stats {
		t.Errorf("snapshot %+v differs from quiesced stats %+v", got, rt.Stats)
	}
}

// TestScrapeWhileRunning: scraping the registry, snapshotting stats, and
// assembling the /spec document from another goroutine while regions
// execute must be safe (this is the -race regression test for pull-style
// publication) and must observe the published metric families.
func TestScrapeWhileRunning(t *testing.T) {
	mod := buildWriterModule(64)
	ri := buildRegion(t, mod)
	reg := obs.NewRegistry()
	rt := New(mod, Config{
		Workers: 3, CheckpointPeriod: 2,
		MisspecRate: 0.1, Seed: 11,
		Publish: NewPublisher(reg),
		OpProf:  interp.NewOpProfiler(64),
	}, ri)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = rt.Stats.Snapshot()
			_ = rt.SpecSnapshot()
			reg.WriteProm(io.Discard)
			_ = reg.WriteVars(io.Discard)
		}
	}()
	for inv := 0; inv < 3; inv++ {
		if _, err := rt.Run(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"privateer_invocations_total 3",
		"privateer_checkpoints_total",
		`privateer_heap_live_bytes{heap="`,
		"privateer_misspec_rate",
		`privateer_op_executed_total{op="`,
		`privateer_fn_calls_total{fn="`,
		"privateer_region_wall_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMisspecAttributionInjected: injected misspeculations carry no
// faulting address, so the attribution table must aggregate them under the
// bare (region, cause) key, with the count reconciling against Stats.
func TestMisspecAttributionInjected(t *testing.T) {
	mod := buildWriterModule(24)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 2, MisspecRate: 1.0, Seed: 3}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Fatal("injection produced no misspeculations")
	}
	rows := rt.MisspecSites()
	if len(rows) == 0 {
		t.Fatal("no attribution rows")
	}
	var total int64
	for _, r := range rows {
		total += r.Count
		if r.Region == "" {
			t.Errorf("row without region: %+v", r)
		}
		if r.Cause == "injected" && r.Object != "" {
			t.Errorf("injected row must have no owning object: %+v", r)
		}
	}
	if total != rt.Stats.Misspecs {
		t.Errorf("attributed %d misspeculations, stats say %d", total, rt.Stats.Misspecs)
	}
	out := FormatMisspecSites(rows)
	if !strings.Contains(out, "injected") || !strings.Contains(out, "count") {
		t.Errorf("formatted table wrong:\n%s", out)
	}
	if FormatMisspecSites(nil) != "no misspeculations recorded\n" {
		t.Error("empty table must render the no-misspeculations line")
	}
}

// TestSpecSnapshotShape: the /spec document must carry the configured
// worker count, a row per logical heap, and a consistent misspeculation
// rate.
func TestSpecSnapshotShape(t *testing.T) {
	mod := buildWriterModule(16)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 2, CheckpointPeriod: 4,
		MisspecRate: 0.5, Seed: 9,
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	snap := rt.SpecSnapshot()
	if snap.Workers != 2 {
		t.Errorf("config fields wrong: %+v", snap)
	}
	if len(snap.Heaps) == 0 {
		t.Error("no per-heap occupancy rows")
	}
	want := 0.0
	if snap.Stats.Checkpoints > 0 {
		want = float64(snap.Stats.Misspecs) / float64(snap.Stats.Checkpoints)
	}
	if snap.MisspecRate != want {
		t.Errorf("misspec rate %g, want %g", snap.MisspecRate, want)
	}
	if snap.Stats.Misspecs > 0 && len(snap.MisspecSites) == 0 {
		t.Error("misspeculations recorded but attribution table empty")
	}
}

// TestPublisherFollowsNewestRuntime: a publisher's Spec document and
// collectors serve the runtime most recently constructed against it, and
// only those: a second publisher on its own registry never sees them.
func TestPublisherFollowsNewestRuntime(t *testing.T) {
	reg, otherReg := obs.NewRegistry(), obs.NewRegistry()
	pub, other := NewPublisher(reg), NewPublisher(otherReg)
	if _, empty := pub.Spec().(struct{}); !empty {
		t.Fatalf("Spec before any runtime = %T, want the empty document", pub.Spec())
	}
	invocations := func(r *obs.Registry) int64 {
		r.WriteProm(io.Discard) // runs the collectors
		return r.Counter("privateer_invocations_total", "").Value()
	}
	for runs := 1; runs <= 2; runs++ {
		mod := buildWriterModule(8)
		rt := New(mod, Config{Workers: 1, CheckpointPeriod: 4, Publish: pub}, buildRegion(t, mod))
		for i := 0; i < runs; i++ {
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
		}
		snap, ok := pub.Spec().(SpecSnapshot)
		if !ok {
			t.Fatalf("Spec returned %T, want SpecSnapshot", pub.Spec())
		}
		if want := rt.Stats.Invocations; snap.Stats.Invocations != want || invocations(reg) != want {
			t.Errorf("runtime %d: Spec says %d invocations, /metrics %d, runtime %d",
				runs, snap.Stats.Invocations, invocations(reg), want)
		}
	}
	if _, empty := other.Spec().(struct{}); !empty || invocations(otherReg) != 0 {
		t.Error("a publisher observed runtimes constructed against another one")
	}
}
