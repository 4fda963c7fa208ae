package specrt

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// buildRegion compiles a module's hottest main loop into a RegionInfo for
// direct runtime tests (a miniature of core.Parallelize without the import
// cycle).
func buildRegion(t *testing.T, mod *ir.Module, trainArgs ...uint64) *RegionInfo {
	t.Helper()
	prof, err := profiling.Run(mod, trainArgs...)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ir.Loop
	for _, li := range prof.HotLoops() {
		if li.Loop.Header.Fn.Name == "main" && li.Loop.Depth == 1 {
			loop = li.Loop
			break
		}
	}
	if loop == nil {
		t.Fatal("no hot main loop")
	}
	a := classify.Classify(loop, prof, classify.Options{})
	plan := deps.SpeculativeBlockers(loop, prof, a)
	if len(plan.Blockers) > 0 {
		t.Fatalf("blockers: %v\n%s", plan.Blockers, a)
	}
	pt := analysis.ComputePointsTo(mod)
	res, err := transform.Apply(mod, loop, prof, a, plan, pt, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outline, err := transform.Outline(mod, loop)
	if err != nil {
		t.Fatal(err)
	}
	return &RegionInfo{Outline: outline, Assign: a, Plan: plan, TStats: res.Stats}
}

// buildWriterModule: for i in [0,n): table[i%4] = i; writes cycle through
// four slots, so the final state depends on the LAST writer of each slot —
// checkpoint data selection by timestamp is what this exercises.
func buildWriterModule(n int64) *ir.Module {
	m := ir.NewModule("writer")
	table := m.NewGlobal("table", 4*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		slot := b.Add(b.Global(table), b.Mul(b.SRem(b.Ld(iv), b.I(4)), b.I(8)))
		b.Store(b.Ld(iv), slot, 8)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("j", b.I(0), b.I(4), func(jv *ir.Instr) {
		v := b.Load(b.Add(b.Global(table), b.Mul(b.Ld(jv), b.I(8))), 8)
		b.St(b.Add(b.Mul(b.Ld(acc), b.I(100)), v), acc)
	})
	b.Ret(b.Ld(acc))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestLastWriterWinsAcrossWorkers: the merged private state must match the
// sequential last-writer semantics at every worker count and checkpoint
// period.
func TestLastWriterWinsAcrossWorkers(t *testing.T) {
	const n = 37 // deliberately not a multiple of workers or period
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5, 8} {
		for _, period := range []int64{1, 3, 7, 100} {
			mod := buildWriterModule(n)
			ri := buildRegion(t, mod)
			rt := New(mod, Config{Workers: workers, CheckpointPeriod: period}, ri)
			got, err := rt.Run()
			if err != nil {
				t.Fatalf("w=%d k=%d: %v", workers, period, err)
			}
			if got != want {
				t.Errorf("w=%d k=%d: %d, want %d", workers, period, got, want)
			}
			if rt.Stats.Misspecs != 0 {
				t.Errorf("w=%d k=%d: unexpected misspecs %d", workers, period, rt.Stats.Misspecs)
			}
		}
	}
}

// TestReadOnlyViolationRecovered: the profile sees only reads of a table,
// but the measured input writes it. The worker faults on the read-only
// heap, the runtime treats it as misspeculation and recovers sequentially.
func TestReadOnlyViolationRecovered(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule("rov")
		table := m.NewGlobal("table", 8*8)
		out := m.NewGlobal("out", 8)
		f := m.NewFunc("main", ir.I64)
		f.NewParam("n", ir.I64)
		b := ir.NewBuilder(f)
		nv := f.Params[0]
		b.For("i", b.I(0), nv, func(iv *ir.Instr) {
			v := b.Load(b.Add(b.Global(table), b.Mul(b.SRem(b.Ld(iv), b.I(8)), b.I(8))), 8)
			addr := b.Global(out)
			b.Store(b.Add(b.Load(addr, 8), v), addr, 8)
			// Iterations >= 12 deface the "read-only" table.
			b.If(b.SGe(b.Ld(iv), b.I(12)), func() {
				b.Store(b.Ld(iv), b.Global(table), 8)
			}, nil)
		})
		b.Ret(b.Load(b.Global(out), 8))
		for _, fn := range m.SortedFuncs() {
			ir.PromoteAllocas(fn)
		}
		return m
	}
	seqIt := interp.New(build(), vm.NewAddressSpace())
	want, err := seqIt.Run(24)
	if err != nil {
		t.Fatal(err)
	}
	mod := build()
	ri := buildRegion(t, mod, 12) // profile only the clean prefix
	if ri.Assign.HeapOf(profiling.Object{Global: mod.Globals["table"]}) != ir.HeapReadOnly {
		t.Fatalf("table should classify read-only on the training prefix:\n%s", ri.Assign)
	}
	rt := New(mod, Config{Workers: 4, CheckpointPeriod: 4}, ri)
	got, err := rt.Run(24)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Error("read-only violation not detected")
	}
	if got != want {
		t.Errorf("result %d, want %d", got, want)
	}
}

// TestSquashPolicy: a misspeculation in a late interval must not discard
// earlier checkpoints — recovery resumes from the last valid one.
func TestSquashPolicy(t *testing.T) {
	const n = 40
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 4, CheckpointPeriod: 5,
		MisspecRate: 0.04, Seed: 99,
	}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("result %d, want %d", got, want)
	}
	if rt.Stats.Misspecs == 0 {
		t.Skip("injection produced no misspeculation for this seed")
	}
	// Recovery must be bounded: the serial re-execution cannot exceed the
	// whole loop (it re-runs each misspeculated iteration, with at most the
	// fleet's size of prefix before it).
	if rt.Sim.RecoverySteps <= 0 {
		t.Error("no recovery steps recorded despite misspeculation")
	}
}

// TestStatsAndOutputPlumbing exercises the remaining accessors.
func TestStatsAndOutputPlumbing(t *testing.T) {
	mod := buildWriterModule(10)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 2}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Master() == nil {
		t.Error("Master() nil after Run")
	}
	if rt.Sim.Time() <= 0 {
		t.Error("simulated time not accounted")
	}
	if rt.Sim.IdleCost() < 0 {
		t.Error("negative idle cost")
	}
	if strings.Contains(rt.Output(), "digest") {
		t.Error("unexpected output")
	}
}

// buildScratchModule: each iteration fills a 4-slot scratch table reached
// through a pointer kept in memory, sums it back, prints the sum and stores
// it to out[i] — separation checks, privacy reads and writes and deferred
// output in every iteration.
func buildScratchModule(n int64) *ir.Module {
	m := ir.NewModule("scratch")
	tmp := m.NewGlobal("tmp", 4*8)
	ptr := m.NewGlobal("ptr", 8)
	out := m.NewGlobal("out", n*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Store(b.Global(tmp), b.Global(ptr), 8)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		i := b.Ld(iv)
		p := b.LoadPtr(b.Global(ptr))
		b.For("j", b.I(0), b.I(4), func(jv *ir.Instr) {
			b.Store(b.Add(i, b.Ld(jv)), b.Add(p, b.Mul(b.Ld(jv), b.I(8))), 8)
		})
		s := b.Local("s")
		b.St(b.I(0), s)
		b.For("k", b.I(0), b.I(4), func(kv *ir.Instr) {
			b.St(b.Add(b.Ld(s), b.Load(b.Add(p, b.Mul(b.Ld(kv), b.I(8))), 8)), s)
		})
		b.Print("s=%d\n", b.Ld(s))
		b.Store(b.Ld(s), b.Add(b.Global(out), b.Mul(i, b.I(8))), 8)
	})
	b.Ret(b.Load(b.Add(b.Global(out), b.I((n-1)*8)), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestHookCountersFoldExactly: workers count their dynamic checks privately
// (the interpreter counts check_heap and predict) and fold them into Stats
// at interval boundaries and on exit. The totals are the ones recorded when
// every hook wrote Stats directly, at every worker count; and a worker
// squashed before its first contribution (one worker, both iterations of a
// two-iteration loop injected, so no checkpoint is ever built) still
// publishes what it counted.
func TestHookCountersFoldExactly(t *testing.T) {
	hooks := func(s Stats) Stats {
		return Stats{SeparationChecks: s.SeparationChecks,
			PrivReadChecks: s.PrivReadChecks, PrivReadBytes: s.PrivReadBytes,
			PrivWriteChecks: s.PrivWriteChecks, PrivWriteBytes: s.PrivWriteBytes,
			DeferredIO: s.DeferredIO}
	}
	// buildScratchModule(n) returns out[n-1] = 4(n-1) + 6.
	run := func(n int64, cfg Config) Stats {
		t.Helper()
		mod := buildScratchModule(n)
		rt := New(mod, cfg, buildRegion(t, mod))
		if v, err := rt.Run(); err != nil || int64(v) != 4*(n-1)+6 {
			t.Fatalf("%+v: result %d, %v; want %d", cfg, v, err, 4*(n-1)+6)
		}
		return rt.Stats
	}
	clean := Stats{SeparationChecks: 320, PrivReadChecks: 40, PrivReadBytes: 1280,
		PrivWriteChecks: 80, PrivWriteBytes: 1600, DeferredIO: 40}
	for _, workers := range []int{1, 2, 4} {
		if got := hooks(run(40, Config{Workers: workers, CheckpointPeriod: 5})); got != clean {
			t.Errorf("workers=%d: hook counters %+v, want %+v", workers, got, clean)
		}
	}
	st := run(2, Config{Workers: 1, CheckpointPeriod: 5, MisspecRate: 1, Seed: 3})
	if st.Checkpoints != 0 || st.Misspecs != 2 {
		t.Fatalf("squash run built %d checkpoints over %d misspeculations; the test wants 0 and 2",
			st.Checkpoints, st.Misspecs)
	}
	squashed := Stats{SeparationChecks: 16, PrivReadChecks: 2, PrivReadBytes: 64,
		PrivWriteChecks: 4, PrivWriteBytes: 80, DeferredIO: 2}
	if got := hooks(st); got != squashed {
		t.Errorf("squash path: hook counters %+v, want %+v", got, squashed)
	}
}

// TestSequentialFallbackPath drives the runtime into its bounded-recovery
// fallback by making every iteration misspeculate: one worker and one
// iteration per checkpoint, so each span advances by one iteration and the
// budget runs out before the loop does.
func TestSequentialFallbackPath(t *testing.T) {
	const n = DefaultMaxRecoveries + 8
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 1, CheckpointPeriod: 1, MisspecRate: 1.0, Seed: 1}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("result %d, want %d", got, want)
	}
	if rt.Stats.Recoveries != DefaultMaxRecoveries || rt.Stats.SequentialFallbacks != 1 {
		t.Errorf("recoveries %d, fallbacks %d; want %d and 1",
			rt.Stats.Recoveries, rt.Stats.SequentialFallbacks, DefaultMaxRecoveries)
	}
}

// TestCommitOutputRace hammers the committed-output stream from concurrent
// goroutines through both of its writers, commitChain and writeOut. Run
// under -race this pins the outMu locking discipline; the final stream must
// contain every record exactly once.
func TestCommitOutputRace(t *testing.T) {
	rt := New(ir.NewModule("empty"), Config{})
	const perG, gs = 200, 4
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					cp := newCheckpoint(int64(i), 0, 1, nil)
					cp.io = append(cp.io, ioRec{iter: int64(i), text: "c\n"})
					rt.commitChain(cp)
				} else {
					rt.writeOut("w\n")
				}
			}
		}(g)
	}
	wg.Wait()
	out := rt.Output()
	if got, want := strings.Count(out, "\n"), perG*gs; got != want {
		t.Errorf("committed %d records, want %d", got, want)
	}
}

// buildPageWriterModule: for i in [0,n), store i into 8 slots of a 32-page
// table, one slot per page, and print a line. Iterations i and i+4 hit the
// same 8 pages, so a worker fleet whose size is not a multiple of 4 dirties
// all 32 shadow pages per worker per interval, so the merge and the chain
// validation each walk many dirty pages. Slot values depend only on the writing
// iteration, so last-writer-wins reproduces the sequential final state.
func buildPageWriterModule(n int64) *ir.Module {
	const pages, writes = 32, 8
	m := ir.NewModule("page-writer")
	table := m.NewGlobal("table", pages*vm.PageSize)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.For("j", b.I(0), b.I(writes), func(jv *ir.Instr) {
			slot := b.SRem(b.Add(i, b.Mul(b.Ld(jv), b.I(pages/writes))), b.I(pages))
			b.Store(i, b.Add(b.Global(table), b.Mul(slot, b.I(vm.PageSize))), 8)
		})
		b.Print("i=%d\n", i)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("p", b.I(0), b.I(pages), func(pv *ir.Instr) {
		v := b.Load(b.Add(b.Global(table), b.Mul(b.Ld(pv), b.I(vm.PageSize))), 8)
		b.St(b.Add(b.Mul(b.Ld(acc), b.I(31)), v), acc)
	})
	b.Ret(b.Ld(acc))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestJoinDeterminismAcrossGOMAXPROCS: GOMAXPROCS decides how the worker
// goroutines are scheduled — which worker reaches an interval's checkpoint
// first, and whether merges queue on its lock — so the join's observable
// behaviour — result, committed output and the simulated-time accounting —
// must not depend on it. Misspeculation-free by construction, so the
// simulated accounting is exactly reproducible.
func TestJoinDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const n = 384
	seqIt := interp.New(buildPageWriterModule(n), vm.NewAddressSpace())
	var seqOut strings.Builder
	seqIt.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		seqOut.WriteString(text)
		return true
	}
	seqRet, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sims []SimStats
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		mod := buildPageWriterModule(n)
		rt := New(mod, Config{Workers: 3, CheckpointPeriod: 48}, buildRegion(t, mod))
		ret, err := rt.Run()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		if rt.Stats.Misspecs != 0 {
			t.Fatalf("GOMAXPROCS=%d: unexpected misspeculation", gmp)
		}
		if ret != seqRet {
			t.Errorf("GOMAXPROCS=%d: result %d, want sequential %d", gmp, ret, seqRet)
		}
		if rt.Output() != seqOut.String() {
			t.Errorf("GOMAXPROCS=%d: output diverged from sequential reference", gmp)
		}
		sims = append(sims, rt.Sim)
	}
	if sims[0] != sims[1] {
		t.Errorf("simulated accounting depends on GOMAXPROCS:\n 1: %+v\n 4: %+v", sims[0], sims[1])
	}
}

// TestJoinAccountsPreRecoveryInstall: Stats.JoinNS must cover the install of
// the valid prefix on the misspeculation exit, not only on the clean one.
// The injection seed is chosen so the invocation's single misspeculation is
// its last iteration: the span installs the prefix [0, 72) and recovery
// re-speculates [72, 95) before it runs iteration 95 alone, so there are two
// installs, and JoinNS has to contain both on top of chain validation.
func TestJoinAccountsPreRecoveryInstall(t *testing.T) {
	const n, rate = 96, 0.02
	mod := buildPageWriterModule(n)
	ri := buildRegion(t, mod)
	cfg := Config{Workers: 3, CheckpointPeriod: 24, MisspecRate: rate}
	for cfg.Seed = 1; ; cfg.Seed++ {
		probe := &RT{Cfg: cfg}
		only := probe.inject(n - 1)
		for i := int64(0); only && i < n-1; i++ {
			only = !probe.inject(i)
		}
		if only {
			break
		}
	}
	col := obs.NewCollector(0)
	cfg.Trace = obs.NewTracer(col)
	rt := New(mod, cfg, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Recoveries != 1 || rt.Stats.Misspecs != 1 {
		t.Fatalf("recoveries %d, misspecs %d, want 1 each", rt.Stats.Recoveries, rt.Stats.Misspecs)
	}
	var installs []int64
	var timed int64
	for _, ev := range col.Events() {
		switch ev.Kind {
		case obs.KInstall:
			installs = append(installs, ev.A)
			timed += ev.DurNS
		case obs.KValidate:
			timed += ev.DurNS
		case obs.KRecovery:
			if ev.A != n-1 || ev.B != n {
				t.Errorf("recovery re-ran [%d, %d), want only the misspeculated iteration [%d, %d)", ev.A, ev.B, n-1, n)
			}
		}
	}
	if len(installs) != 2 || installs[0] == 0 || installs[1] == 0 {
		t.Fatalf("installs of %v bytes, want two: the prefix [0, 72) and the re-speculated [72, 95)", installs)
	}
	if rt.Stats.JoinNS < timed {
		t.Errorf("JoinNS %d < validate+install %d: an install around recovery is not accounted",
			rt.Stats.JoinNS, timed)
	}
}
