package specrt

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// TestWarmPoolReuseBitIdentical runs the same compiled region repeatedly
// over one shared decoded Program and warmed worker pool — the region
// service's steady state — and checks that warmed spawns happen and that
// every run's result still matches the sequential reference exactly.
func TestWarmPoolReuseBitIdentical(t *testing.T) {
	const n = 37
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}

	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	prog := interp.SharedProgram(mod)
	pool := NewWorkerPool(0)
	const runs = 5
	for i := 0; i < runs; i++ {
		rt := New(mod, Config{Workers: 4, CheckpointPeriod: 4,
			Program: prog, Pool: pool}, ri)
		got, err := rt.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("run %d: %d, want %d", i, got, want)
		}
		if rt.Stats.Misspecs != 0 {
			t.Fatalf("run %d: unexpected misspecs %d", i, rt.Stats.Misspecs)
		}
		if i > 0 && rt.Stats.WarmSpawns == 0 {
			t.Fatalf("run %d: no warmed spawns despite a populated pool", i)
		}
	}
	st := pool.Snapshot()
	if st.Reuses == 0 || st.Returned == 0 {
		t.Fatalf("pool saw no traffic: %+v", st)
	}
	if st.Retained == 0 {
		t.Fatalf("pool retained no slots after %d runs: %+v", runs, st)
	}
}

// TestWarmPoolSurvivesMisspeculation checks that recycling worker machinery
// does not disturb recovery: a run with forced misspeculation over a warmed
// pool still produces the sequential result.
func TestWarmPoolSurvivesMisspeculation(t *testing.T) {
	const n = 37
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	prog := interp.SharedProgram(mod)
	pool := NewWorkerPool(0)
	for i := 0; i < 4; i++ {
		rt := New(mod, Config{Workers: 3, CheckpointPeriod: 2,
			MisspecRate: 1.0, Seed: uint64(i + 1),
			Program: prog, Pool: pool}, ri)
		got, err := rt.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("run %d: %d, want %d", i, got, want)
		}
		if rt.Stats.Misspecs == 0 {
			t.Fatalf("run %d: injection produced no misspeculation", i)
		}
	}
	// Every span after the first spawned from slots squashed workers were
	// parked in, writing nodes and pages their arenas recycled.
	if st := pool.Snapshot(); st.Reuses < 3*3 {
		t.Fatalf("fleet went through fewer than 3 put/get cycles: %+v", st)
	}
}

// TestWarmPoolRunAllocatesLess pins what the pool is for: a run over a
// warmed pool finds its master and worker spaces, their radix nodes and pages,
// its interpreters' frame slabs and its checkpoint buffers where the previous
// run left them, and allocates at most 15 % of the bytes the same run
// allocates cold.
func TestWarmPoolRunAllocatesLess(t *testing.T) {
	mod := buildScratchModule(40)
	ri := buildRegion(t, mod)
	prog := interp.SharedProgram(mod)
	run := func(pool *WorkerPool) uint64 {
		rt := New(mod, Config{Workers: 4, CheckpointPeriod: 5, Program: prog, Pool: pool}, ri)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if v, err := rt.Run(); err != nil || v != 162 {
			t.Fatalf("result %d, %v; want 162", v, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(nil) // decode the program
	cold := run(nil)
	pool := NewWorkerPool(0)
	run(pool)
	warm := run(pool)
	t.Logf("cold %d B, warm %d B (%.0f %%)", cold, warm, 100*float64(warm)/float64(cold))
	if warm*100 > cold*15 {
		t.Errorf("a run on a warmed pool allocates %d B, more than 15 %% of the %d B of a cold one", warm, cold)
	}
}

// TestPooledMasterIsFresh: a master drawn from the pool, from the slot the
// previous run's master parked and from slots its workers parked, is the
// space NewAddressSpace + LayOutGlobals builds: the same global layout and
// contents, per-heap Brk, ProtOf and LiveObjects, radix shape, and Stats
// counting from zero. Runs on pooled masters return and print what a run on
// a fresh pool does, and each Record.VM reads as that run's own vm counts —
// the figures this module's runs counted at W = 4 when the workers still
// added into the master's Stats — also once later runs have drawn the
// slots the run parked.
func TestPooledMasterIsFresh(t *testing.T) {
	mod := buildScratchModule(40)
	ri := buildRegion(t, mod)
	prog := interp.SharedProgram(mod)
	newRT := func(pool *WorkerPool) *RT {
		return New(mod, Config{Workers: 4, CheckpointPeriod: 5, Program: prog, Pool: pool}, ri)
	}
	ref := interp.NewShared(prog, vm.NewAddressSpace())
	if err := ref.LayOutGlobals(); err != nil {
		t.Fatal(err)
	}

	fresh := newRT(NewWorkerPool(0))
	wantRet, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantVM := fresh.Output(), vm.Stats{PagesMapped: 10, NodesCopied: 4}
	if fresh.VM != wantVM {
		t.Errorf("a fresh pool's run counted %+v, want %+v", fresh.VM, wantVM)
	}

	pool := NewWorkerPool(0)
	warm := newRT(pool)
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	parked := pool.Snapshot().Retained
	if parked != 5 {
		t.Fatalf("a 4-worker run parked %d slots, want its workers and its master", parked)
	}
	var drawn []*interp.Interp
	var fromMaster, fromWorker int
	for i := int64(0); i < parked; i++ {
		rt := newRT(pool)
		rt.pool = pool // what Run sets before it draws its master
		m := rt.newMaster().it
		if m == warm.Master() {
			fromMaster++
		} else {
			fromWorker++
		}
		if m.AS.Stats != (vm.Stats{}) {
			t.Errorf("slot %d: a drawn master starts counting at %+v", i, m.AS.Stats)
		}
		if err := m.LayOutGlobals(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.GlobalLayout(), ref.GlobalLayout()) {
			t.Errorf("slot %d: layout %v, fresh %v", i, m.GlobalLayout(), ref.GlobalLayout())
		}
		for _, g := range mod.Globals {
			got, want := make([]byte, g.Size), make([]byte, g.Size)
			if err := m.AS.ReadBytes(m.GlobalAddr(g), got); err != nil {
				t.Fatal(err)
			}
			if err := ref.AS.ReadBytes(ref.GlobalAddr(g), want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("slot %d: @%s holds %x, fresh %x", i, g.Name, got, want)
			}
		}
		for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
			if m.AS.Brk(h) != ref.AS.Brk(h) || m.AS.ProtOf(h) != ref.AS.ProtOf(h) ||
				m.AS.LiveObjects(h) != ref.AS.LiveObjects(h) {
				t.Errorf("slot %d, heap %v: brk %#x prot %v live %d; fresh %#x %v %d", i, h,
					m.AS.Brk(h), m.AS.ProtOf(h), m.AS.LiveObjects(h),
					ref.AS.Brk(h), ref.AS.ProtOf(h), ref.AS.LiveObjects(h))
			}
		}
		if got, want := m.AS.PageTable(), ref.AS.PageTable(); got != want {
			t.Errorf("slot %d: page table %+v, fresh %+v", i, got, want)
		}
		if m.AS.Stats != ref.AS.Stats {
			t.Errorf("slot %d: layout counted %+v, fresh %+v", i, m.AS.Stats, ref.AS.Stats)
		}
		drawn = append(drawn, m)
	}
	if fromMaster != 1 || fromWorker != 4 {
		t.Fatalf("drew %d master and %d worker slots, want 1 and 4", fromMaster, fromWorker)
	}
	// Parked back in draw order, the next master comes from a worker's slot;
	// the one after, from a slot that last served as a master.
	for _, m := range drawn {
		pool.put(prog, &warmSlot{as: m.AS, it: m})
	}
	var first *RT
	for i := 0; i < 3; i++ {
		rt := newRT(pool)
		ret, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ret != wantRet || rt.Output() != wantOut {
			t.Errorf("run %d on a pooled master: %d and %q, want %d and %q", i, ret, rt.Output(), wantRet, wantOut)
		}
		if rt.VM != wantVM {
			t.Errorf("run %d: Record.VM %+v, want %+v", i, rt.VM, wantVM)
		}
		if i == 0 {
			first = rt
		}
	}
	if first.VM != wantVM {
		t.Errorf("run 0's Record.VM reads %+v once later runs reused its slots, want %+v", first.VM, wantVM)
	}
}

// TestParkedSlotsPinNoRun: a parked slot keeps only its own machinery. Once
// a pooled run's RT is dropped it is collected while the pool still holds
// its master's and workers' slots; a parked interpreter whose hooks or
// Speculator still reached the worker, its span and so the RT would keep the
// whole run — master tree, output, checkpoints, site map — alive.
func TestParkedSlotsPinNoRun(t *testing.T) {
	mod := buildScratchModule(40)
	ri := buildRegion(t, mod)
	pool := NewWorkerPool(0)
	var collected atomic.Bool
	func() {
		rt := New(mod, Config{Workers: 4, CheckpointPeriod: 5,
			Program: interp.SharedProgram(mod), Pool: pool}, ri)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(rt, func(*RT) { collected.Store(true) })
	}()
	for i := 0; i < 10 && !collected.Load(); i++ {
		runtime.GC()
	}
	if !collected.Load() {
		t.Fatal("the pool keeps a finished run alive")
	}
	if st := pool.Snapshot(); st.Retained == 0 {
		t.Fatalf("the pool parked nothing: %+v", st)
	}
	for _, slots := range pool.slots {
		for _, s := range slots {
			if s.it.Spec != nil {
				t.Errorf("a parked interpreter keeps its Speculator %T", s.it.Spec)
			}
		}
	}
}

// TestRecycledInterpreterChecks: an interpreter that ran with checks off —
// recovery's mode — comes back from the pool checking and counting from
// zero, so a warm worker never speculates unchecked. With checks off the
// separation module's bad pointers pass; the recycled interpreter stops at
// the first one.
func TestRecycledInterpreterChecks(t *testing.T) {
	mod, check := buildSeparationModule()
	prog := interp.SharedProgram(mod)
	pool := NewWorkerPool(1)
	it := interp.NewShared(prog, vm.NewAddressSpace())
	it.ChecksOff = true
	if _, err := it.Run(8); err != nil {
		t.Fatalf("checks off: %v", err)
	}
	pool.put(prog, &warmSlot{as: it.AS, it: it})
	s := pool.get(prog)
	if s == nil || s.it != it {
		t.Fatal("the pool did not hand the parked interpreter back")
	}
	if it.ChecksOff || it.SepChecks != 0 || it.Predictions != 0 {
		t.Fatalf("recycled: checks off %v, counters %d/%d; want checks on, counting from zero",
			it.ChecksOff, it.SepChecks, it.Predictions)
	}
	_, err := it.Run(8)
	var me *interp.MisspecError
	if !errors.As(err, &me) || me.Reason != "separation violated" || me.Instr != check {
		t.Fatalf("recycled run: %v; want the separation check to fail", err)
	}
	if it.SepChecks != 6 {
		t.Errorf("recycled run counted %d separation checks, want 6 (five pass, the sixth fails)", it.SepChecks)
	}
}

// TestHardErrorParksFleet: a worker's hard error (a division by zero at
// i = 3, which is no misspeculation) fails the run, yet every space the span
// spawned goes back to the run's pool, Config.Pool or the Run's own: a
// dropped space would drain warm slots and keep the master's tree shared,
// so the master could never reown it.
func TestHardErrorParksFleet(t *testing.T) {
	mod := ir.NewModule("div")
	out := mod.NewGlobal("out", 4*8)
	f := mod.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), f.Params[0], func(iv *ir.Instr) {
		i := b.Ld(iv)
		q := b.SDiv(b.I(100), b.Sub(b.I(3), i))
		b.Store(q, b.Add(b.Global(out), b.Mul(b.SRem(i, b.I(4)), b.I(8))), 8)
	})
	b.Ret(b.Load(b.Global(out), 8))
	ir.PromoteAllocas(f)
	ri := buildRegion(t, mod, 3) // the training input stops before i = 3
	prog := interp.SharedProgram(mod)
	pool := NewWorkerPool(0)
	for run, p := range []*WorkerPool{pool, pool, nil} {
		rt := New(mod, Config{Workers: 4, CheckpointPeriod: 2, Program: prog, Pool: p}, ri)
		if _, err := rt.Run(8); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("run %d: error %v, want the division by zero", run, err)
		}
		if st := pool.Snapshot(); st.Returned != st.Reuses+st.Misses {
			t.Errorf("run %d: %d spawns but %d slots parked back: %+v",
				run, st.Reuses+st.Misses, st.Returned, st)
		}
		if !rt.Master().AS.Reown() {
			t.Errorf("run %d: the master cannot reown its tree after the failed span", run)
		}
	}
}

// TestHardErrorRecyclesSpan: a worker that errors hard after its first
// contribution (one worker, period 2, a division by zero at i = 3) fails
// the run, yet the span's checkpoint and the pages it merged go back to the
// pool's free list: an exit that skipped recycling would drop them.
func TestHardErrorRecyclesSpan(t *testing.T) {
	mod := ir.NewModule("div")
	out := mod.NewGlobal("out", 4*8)
	f := mod.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), f.Params[0], func(iv *ir.Instr) {
		i := b.Ld(iv)
		q := b.SDiv(b.I(100), b.Sub(b.I(3), i))
		b.Store(q, b.Add(b.Global(out), b.Mul(b.SRem(i, b.I(4)), b.I(8))), 8)
	})
	b.Ret(b.Load(b.Global(out), 8))
	ir.PromoteAllocas(f)
	ri := buildRegion(t, mod, 3)
	pool := NewWorkerPool(0)
	rt := New(mod, Config{Workers: 1, CheckpointPeriod: 2,
		Program: interp.SharedProgram(mod), Pool: pool}, ri)
	if _, err := rt.Run(8); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error %v, want the division by zero", err)
	}
	if rt.Stats.Checkpoints != 1 {
		t.Fatalf("%d checkpoints, want the one the worker contributed before failing", rt.Stats.Checkpoints)
	}
	f2 := &pool.bufs
	if len(f2.cps) != 1 || f2.held < 2*vm.PageSize {
		t.Errorf("free list holds %d checkpoints and %d bytes; want the failed span's checkpoint and its data and shadow pages",
			len(f2.cps), f2.held)
	}
}

// TestConfigProgramModuleMismatch: a Program decoding a different module
// must be rejected up front, not discovered as corrupt execution.
func TestConfigProgramModuleMismatch(t *testing.T) {
	mod := buildWriterModule(5)
	ri := buildRegion(t, mod)
	other := interp.SharedProgram(buildWriterModule(5))
	rt := New(mod, Config{Workers: 2, Program: other}, ri)
	if _, err := rt.Run(); err == nil {
		t.Fatal("mismatched Config.Program was not rejected")
	}
}

// TestPoolWithoutProgramRejected: a pool keys its slots by decoded Program,
// so runtimes that share a Pool but each decode their module privately
// would park a fleet apiece that no later runtime draws. Their Runs are
// refused, naming both fields, before anything is drawn or parked.
func TestPoolWithoutProgramRejected(t *testing.T) {
	mod := buildWriterModule(37)
	ri := buildRegion(t, mod)
	pool := NewWorkerPool(0)
	for i := 0; i < 2; i++ {
		rt := New(mod, Config{Workers: 4, CheckpointPeriod: 4, Pool: pool}, ri)
		_, err := rt.Run()
		if err == nil || !strings.Contains(err.Error(), "Config.Pool") || !strings.Contains(err.Error(), "Config.Program") {
			t.Errorf("run %d: error %v, want one naming Config.Pool and Config.Program", i, err)
		}
		if st := pool.Snapshot(); st.Retained != 0 || st.Returned != 0 {
			t.Errorf("run %d: the pool parked slots no later runtime can draw: %+v", i, st)
		}
	}
}

// TestOwnPoolRecyclesAcrossSpans: a runtime given no Pool spawns through a
// pool of its Run's own. Misspeculation injected at one worker makes the
// Run several spans long, and every span after the first re-clones the
// slot the span before parked. The Run returns, prints and counts what the
// same run on a fresh explicit pool does, WarmSpawns included; only the
// wall-clock timings differ.
func TestOwnPoolRecyclesAcrossSpans(t *testing.T) {
	mod := buildWriterModule(37)
	ri := buildRegion(t, mod)
	cfg := Config{Workers: 1, CheckpointPeriod: 4, MisspecRate: 0.1, Seed: 1}
	run := func(cfg Config) (uint64, *RT) {
		rt := New(mod, cfg, ri)
		v, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v, rt
	}
	ownRet, own := run(cfg)
	if own.Stats.Misspecs == 0 || own.Stats.WarmSpawns == 0 {
		t.Fatalf("%d misspeculations, %d warm spawns; want later spans to draw the slot the first one parked",
			own.Stats.Misspecs, own.Stats.WarmSpawns)
	}
	cfg.Program, cfg.Pool = interp.SharedProgram(mod), NewWorkerPool(0)
	wantRet, want := run(cfg)
	counts := func(st Stats) Stats {
		st.SpawnNS, st.JoinNS, st.CheckpointNS, st.PrivReadNS = 0, 0, 0, 0
		st.PrivWriteNS, st.WorkerBusyNS, st.RegionWallNS = 0, 0, 0
		return st
	}
	if ownRet != wantRet || own.Output() != want.Output() {
		t.Errorf("own pool: %d and %q; explicit pool: %d and %q", ownRet, own.Output(), wantRet, want.Output())
	}
	if counts(own.Stats) != counts(want.Stats) {
		t.Errorf("own pool counted %+v, explicit pool %+v", counts(own.Stats), counts(want.Stats))
	}
	if own.Sim != want.Sim || own.VM != want.VM || !slices.Equal(own.Sites, want.Sites) {
		t.Errorf("own pool: Sim %+v, VM %+v, sites %v; explicit pool: %+v, %+v, %v",
			own.Sim, own.VM, own.Sites, want.Sim, want.VM, want.Sites)
	}
}
