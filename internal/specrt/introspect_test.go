package specrt

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateer/internal/classify"
	"privateer/internal/ir"
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

// buildLiveInModule: for i in [0,n): obj[0] = i; obj[1] = obj[i >= 2] + i,
// where obj is the global @acc or, with malloc set, the buffer main:buf. A
// training run with n = 2 reads only the word its iteration just wrote, so
// obj is privatized; at n > 2 every iteration from 2 on reads the obj[1]
// its predecessor wrote.
func buildLiveInModule(malloc bool) *ir.Module {
	m := ir.NewModule("livein")
	g := m.NewGlobal("acc", 64)
	f := m.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	ptr := b.Local("ptr")
	if malloc {
		b.St(b.Malloc("buf", b.I(64)), ptr)
	} else {
		b.St(b.Global(g), ptr)
	}
	b.For("i", b.I(0), f.Params[0], func(iv *ir.Instr) {
		i := b.Ld(iv)
		p := b.LdP(ptr)
		b.Store(i, p, 8)
		v := b.Load(b.Add(p, b.Select(b.SGe(i, b.I(2)), b.I(8), b.I(0))), 8)
		b.Store(b.Add(v, i), b.Add(p, b.I(8)), 8)
	})
	b.Ret(b.Load(b.Add(b.LdP(ptr), b.I(8)), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestMisspecAttributionNamesObject: a privacy violation on a global and
// one on a malloc site are attributed to the owning object by name. The rows
// and the formatted table are the bytes recorded when sites were labelled at
// allocation; the labels are now formatted only when a misspeculation is
// attributed. One worker keeps the misspeculation count schedule-free; the
// region's name carries a process-wide outline sequence number, so the table
// is templated on it.
func TestMisspecAttributionNamesObject(t *testing.T) {
	for _, tc := range []struct {
		malloc                         bool
		object, head, rule, objectCell string
	}{
		{false, "@acc", "object  site", "------  ----", "@acc        "},
		{true, "main:buf", "object    site", "--------  ----", "main:buf      "},
	} {
		mod := buildLiveInModule(tc.malloc)
		ri := buildRegion(t, mod, 2)
		rt := New(mod, Config{Workers: 1, CheckpointPeriod: 3}, ri)
		if v, err := rt.Run(12); err != nil || v != 67 {
			t.Fatalf("%s: result %d, %v; want 67", tc.object, v, err)
		}
		region := ri.Outline.RegionFn.Name
		rows := rt.MisspecSites()
		want := []MisspecSiteRow{{Region: region, Cause: "privacy violated (fast phase)",
			Object: tc.object, Count: 10}}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("%s: rows %+v, want %+v", tc.object, rows, want)
		}
		table := "Misspeculations by allocation site\n\n" +
			fmt.Sprintf("count  %-*s  cause                          %s\n", len(region), "region", tc.head) +
			"-----  " + strings.Repeat("-", len(region)) + "  -----------------------------  " + tc.rule + "\n" +
			"10     " + region + "  privacy violated (fast phase)  " + tc.objectCell + "\n"
		if got := FormatMisspecSites(rows); got != table {
			t.Errorf("%s: table\n%q\nwant\n%q", tc.object, got, table)
		}
	}
}

// buildSeparationModule hand-instruments a loop whose separation check
// fails for real: for i in [0,n) it reads and prints *p after check_heap(p,
// read-only), where p is @a (read-only heap) below iteration 5 and @b
// (system heap) from 5 on. A profile at n = 5 sees only clean iterations.
// It returns the module and the check.
func buildSeparationModule() (*ir.Module, *ir.Instr) {
	m := ir.NewModule("sepfail")
	a, bg := m.NewGlobal("a", 8), m.NewGlobal("b", 8)
	a.Heap = ir.HeapReadOnly
	f := m.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	var check *ir.Instr
	b.For("i", b.I(0), f.Params[0], func(iv *ir.Instr) {
		p := b.Select(b.SGe(b.Ld(iv), b.I(5)), b.Global(bg), b.Global(a))
		check = b.CheckHeap(p, ir.HeapReadOnly)
		b.Print("%d ", b.Load(p, 8))
	})
	b.Ret(b.I(0))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m, check
}

// TestSeparationMisspecSite pins the attribution row of a check_heap that
// fails in a worker: one misspeculation per iteration from 5 on, each
// recovered, with the worker's cause text, the check as its site and the
// global that owns the faulting address. One worker keeps the count
// schedule-free.
func TestSeparationMisspecSite(t *testing.T) {
	mod, check := buildSeparationModule()
	ri := outlineRegion(t, mod, &classify.Assignment{}, 5)
	rt := New(mod, Config{Workers: 1, CheckpointPeriod: 2}, ri)
	if _, err := rt.Run(8); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Output(), "0 0 0 0 0 0 0 0 "; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	want := []MisspecSiteRow{{Region: ri.Outline.RegionFn.Name, Cause: "separation violated",
		Site: check.Format(), Object: "@b", Count: 3}}
	if rows := rt.MisspecSites(); !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %+v, want %+v", rows, want)
	}
	if rt.Stats.SeparationChecks == 0 || rt.Stats.Recoveries != 3 {
		t.Errorf("separation checks %d, recoveries %d; want > 0 and 3",
			rt.Stats.SeparationChecks, rt.Stats.Recoveries)
	}
}
