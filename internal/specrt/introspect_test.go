package specrt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"privateer/internal/classify"
	"privateer/internal/ir"
)

// notTwice names the int64 fields of got, a struct of counters, that are
// not twice the same field of one, skipping the fields skip names.
func notTwice(one, got any, skip func(name string) bool) []string {
	var bad []string
	o, g := reflect.ValueOf(one), reflect.ValueOf(got)
	for i := 0; i < o.NumField(); i++ {
		name := o.Type().Field(i).Name
		if skip(name) {
			continue
		}
		if a, b := o.Field(i).Int(), g.Field(i).Int(); b != 2*a {
			bad = append(bad, fmt.Sprintf("%s %d after two runs, %d after one", name, b, a))
		}
	}
	return bad
}

// TestRecordAddsUpAcrossRuns: every field of the Record adds up over the
// Runs of one RT. A clean writer run at W = 2 counts the same events every
// time, so after a second Run each count field of Stats, all of Sim (the
// master's sequential steps included) and all of VM read exactly twice what
// the first left; only the wall-clock timings differ.
func TestRecordAddsUpAcrossRuns(t *testing.T) {
	mod := buildWriterModule(64)
	rt := New(mod, Config{Workers: 2}, buildRegion(t, mod))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	one := rt.Record
	if one.Sim.SeqSteps == 0 || one.VM.PagesMapped == 0 || one.Stats.Checkpoints == 0 {
		t.Fatalf("one run counted too little to compare: %+v", one)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	got := rt.Record
	none := func(string) bool { return false }
	bad := notTwice(one.Stats, got.Stats, func(name string) bool { return strings.HasSuffix(name, "NS") })
	bad = append(bad, notTwice(one.Sim, got.Sim, none)...)
	bad = append(bad, notTwice(one.VM, got.VM, none)...)
	for _, b := range bad {
		t.Error(b)
	}
	if got.Sites != nil || got.SepAudit != nil {
		t.Errorf("clean runs left sites %v, audit lines %v; want both nil", got.Sites, got.SepAudit)
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
	rows := rt.Sites
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
// region is the module's first outline, so its name is fixed.
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
		const region = "__region_main_1"
		rows := rt.Sites
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
	if rows := rt.Sites; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %+v, want %+v", rows, want)
	}
	if rt.Stats.SeparationChecks == 0 || rt.Stats.Recoveries != 3 {
		t.Errorf("separation checks %d, recoveries %d; want > 0 and 3",
			rt.Stats.SeparationChecks, rt.Stats.Recoveries)
	}
}
