package specrt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"privateer/internal/classify"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
)

// notSum names the int64 fields of got, a struct of counters, that are not
// the sum of the same fields of a and b, skipping the fields skip names.
func notSum(a, b, got any, skip func(name string) bool) []string {
	var bad []string
	av, bv, gv := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(got)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if skip(name) {
			continue
		}
		if x, y, g := av.Field(i).Int(), bv.Field(i).Int(), gv.Field(i).Int(); g != x+y {
			bad = append(bad, fmt.Sprintf("%s %d after both runs, want %d + %d", name, g, x, y))
		}
	}
	return bad
}

// buildReduxLeakModule allocates n reduction objects and frees none, then
// add-reduces into the last one. The returned instruction is the
// allocation site.
//
//	for j in [0,n): r = halloc(8, redux); *r = 0; @slot = r
//	for i in [0,64): *@slot += i
func buildReduxLeakModule() (*ir.Module, *ir.Instr) {
	m := ir.NewModule("redux-leak")
	slot := m.NewGlobal("slot", 8)
	f := m.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	var site *ir.Instr
	b.For("j", b.I(0), f.Params[0], func(*ir.Instr) {
		site = b.HAlloc("r", b.I(8), ir.HeapRedux)
		b.Store(b.I(0), site, 8)
		b.St(site, b.Global(slot))
	})
	b.For("i", b.I(0), b.I(64), func(iv *ir.Instr) {
		p := b.LdP(b.Global(slot))
		b.Store(b.Add(b.Load(p, 8), b.Ld(iv)), p, 8)
	})
	b.Ret(b.Load(b.LdP(b.Global(slot)), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m, site
}

// TestRecordAddsUpAcrossRuns: every field of the Record adds up over the
// Runs of one RT. Two Runs of one RT count exactly what two fresh RTs
// running the same arguments count: each count field of Stats, all of Sim
// (the master's sequential steps included) and all of VM; only the
// wall-clock timings differ. The writer runs clean at W = 2 twice; the
// leak module allocates three reduction objects, then one, so a registry
// that kept the first Run's objects would identity-initialize, merge and
// install two dead objects in the second.
func TestRecordAddsUpAcrossRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*ir.Module, *RegionInfo)
		args  [2][]uint64
	}{
		{"writer", func() (*ir.Module, *RegionInfo) {
			mod := buildWriterModule(64)
			return mod, buildRegion(t, mod)
		}, [2][]uint64{nil, nil}},
		{"redux-leak", func() (*ir.Module, *RegionInfo) {
			mod, site := buildReduxLeakModule()
			return mod, outlineRegion(t, mod, &classify.Assignment{
				ReduxOps:   map[profiling.Object]ir.ReduxKind{{Site: site}: ir.ReduxAddI64},
				ReduxSizes: map[profiling.Object]int64{{Site: site}: 8},
			}, 1)
		}, [2][]uint64{{3}, {1}}},
	} {
		newRT := func() *RT {
			mod, ri := tc.build()
			return New(mod, Config{Workers: 2}, ri)
		}
		var want [2]uint64
		run := func(rt *RT, i int) uint64 {
			v, err := rt.Run(tc.args[i]...)
			if err != nil {
				t.Fatalf("%s%v: %v", tc.name, tc.args[i], err)
			}
			return v
		}
		var fresh [2]Record
		for i := range tc.args {
			rt := newRT()
			want[i] = run(rt, i)
			fresh[i] = rt.Record
		}
		if one := fresh[0]; one.Sim.SeqSteps == 0 || one.VM.PagesMapped == 0 || one.Stats.Checkpoints == 0 {
			t.Fatalf("%s: one run counted too little to compare: %+v", tc.name, one)
		}
		rt := newRT()
		for i := range tc.args {
			if v := run(rt, i); v != want[i] {
				t.Errorf("%s%v: result %d on Run %d of one RT, %d on a fresh one", tc.name, tc.args[i], v, i+1, want[i])
			}
		}
		got := rt.Record
		none := func(string) bool { return false }
		bad := notSum(fresh[0].Stats, fresh[1].Stats, got.Stats, func(name string) bool { return strings.HasSuffix(name, "NS") })
		bad = append(bad, notSum(fresh[0].Sim, fresh[1].Sim, got.Sim, none)...)
		bad = append(bad, notSum(fresh[0].VM, fresh[1].VM, got.VM, none)...)
		for _, b := range bad {
			t.Errorf("%s: %s", tc.name, b)
		}
		if got.Sites != nil || got.SepAudit != nil {
			t.Errorf("%s: clean runs left sites %v, audit lines %v; want both nil", tc.name, got.Sites, got.SepAudit)
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
// region is the module's first outline, so its name is fixed. At W = 4
// several workers fault in one span, so ownerOf and noteMisspec run
// concurrently: however the counts fall, the rows add up to
// Stats.Misspecs and every row names the object.
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
		want := []obs.MisspecAttribution{{Region: region, Cause: "privacy violated (fast phase)",
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

		mod = buildLiveInModule(tc.malloc)
		rt = New(mod, Config{Workers: 4, CheckpointPeriod: 3}, buildRegion(t, mod, 2))
		if v, err := rt.Run(12); err != nil || v != 67 {
			t.Fatalf("%s, W = 4: result %d, %v; want 67", tc.object, v, err)
		}
		var total int64
		for _, r := range rt.Sites {
			total += r.Count
			if r.Object != tc.object {
				t.Errorf("%s, W = 4: row %+v does not name the object", tc.object, r)
			}
		}
		if total != rt.Stats.Misspecs || total < 2 {
			t.Errorf("%s, W = 4: rows add up to %d, Stats.Misspecs %d; want equal and at least 2",
				tc.object, total, rt.Stats.Misspecs)
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
	want := []obs.MisspecAttribution{{Region: ri.Outline.RegionFn.Name, Cause: "separation violated",
		Site: check.Format(), Object: "@b", Count: 3}}
	if rows := rt.Sites; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %+v, want %+v", rows, want)
	}
	if rt.Stats.SeparationChecks == 0 || rt.Stats.Recoveries != 3 {
		t.Errorf("separation checks %d, recoveries %d; want > 0 and 3",
			rt.Stats.SeparationChecks, rt.Stats.Recoveries)
	}
}
