package specrt

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// TestScrapeWhileRunning: the two reads documented as safe during a run —
// an atomic Stats snapshot and the misspeculation attribution table — must
// be callable from another goroutine while regions execute (the -race
// regression test for both).
func TestScrapeWhileRunning(t *testing.T) {
	mod := buildWriterModule(64)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 3, CheckpointPeriod: 2,
		MisspecRate: 0.1, Seed: 11,
	}, ri)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = rt.Stats.Snapshot()
			_ = rt.MisspecSites()
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
	if got := rt.Stats.Snapshot().Invocations; got != 3 {
		t.Errorf("snapshot after 3 runs counts %d invocations", got)
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
