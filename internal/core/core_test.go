package core

import (
	"strings"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// buildMini builds the miniature dijkstra-like program: a reused table,
// a reused queue pointer (read-before-write, handled by value prediction),
// short-lived nodes, a read-only input, a sum reduction and deferred
// output. n controls the trip count.
func buildMini(n int64) *ir.Module {
	m := ir.NewModule("mini")
	table := m.NewGlobal("table", n*8)
	input := m.NewGlobal("input", n*8)
	for i := int64(0); i < n; i++ {
		input.Init = append(input.Init, byte(i*7+3), 0, 0, 0, 0, 0, 0, 0)
	}
	head := m.NewGlobal("head", 8)
	sum := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("src", b.I(0), b.I(n), func(sv *ir.Instr) {
		// Initialize the whole table each iteration (privatizable).
		b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
			slot := b.Add(b.Global(table), b.Mul(b.Ld(iv), b.I(8)))
			b.Store(b.Add(b.Ld(sv), b.Ld(iv)), slot, 8)
		})
		// Enqueue one node; node->next = head reads last iteration's NULL.
		node := b.Malloc("node", b.I(16))
		b.Store(b.Ld(sv), node, 8)
		b.Store(b.LoadPtr(b.Global(head)), b.Add(node, b.I(8)), 8)
		b.Store(node, b.Global(head), 8)
		// Drain the queue.
		b.While(func() ir.Value { return b.Ne(b.LoadPtr(b.Global(head)), b.P(0)) }, func() {
			cur := b.LoadPtr(b.Global(head))
			v := b.Load(cur, 8)
			idx := b.SRem(v, b.I(n))
			src := b.Add(b.Global(input), b.Mul(idx, b.I(8)))
			dst := b.Add(b.Global(table), b.Mul(idx, b.I(8)))
			b.Store(b.Load(src, 8), dst, 8)
			b.Store(b.LoadPtr(b.Add(cur, b.I(8))), b.Global(head), 8)
			b.Free(cur)
		})
		// Reduce: sum += table[src].
		sumAddr := b.Global(sum)
		cell := b.Load(b.Add(b.Global(table), b.Mul(b.Ld(sv), b.I(8))), 8)
		b.Store(b.Add(b.Load(sumAddr, 8), cell), sumAddr, 8)
		// Deferred output.
		b.Print("iter %d cell %d\n", b.Ld(sv), cell)
	})
	b.Ret(b.Load(b.Global(sum), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

func TestParallelizeSelectsOuterLoop(t *testing.T) {
	m := buildMini(24)
	par, err := Parallelize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 1 {
		t.Fatalf("selected %d regions, want 1\n%s", len(par.Regions), par.Summary())
	}
	ri := par.Regions[0]
	if !ri.Plan.NeedsValuePrediction {
		t.Error("value prediction not planned")
	}
	if !ri.Plan.NeedsIODeferral {
		t.Error("I/O deferral not planned")
	}
	s := par.Summary()
	if !strings.Contains(s, "selected") || !strings.Contains(s, "region(s) parallelized") {
		t.Errorf("summary missing header or selection:\n%s", s)
	}
}

// runBoth runs the original sequentially and the parallelized version with
// the given config, returning (seqVal, seqOut, parVal, parOut, rt).
func runBoth(t *testing.T, n int64, cfg specrt.Config) (uint64, string, uint64, string, *specrt.RT) {
	t.Helper()
	seqVal, seqOut, err := RunSequential(buildMini(n))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	m := buildMini(n)
	par, err := Parallelize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) == 0 {
		t.Fatalf("nothing parallelized:\n%s", par.Summary())
	}
	rt, parVal, err := Run(par, cfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	return seqVal, seqOut, parVal, rt.Output(), rt
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		seqVal, seqOut, parVal, parOut, rt := runBoth(t, 40, specrt.Config{Workers: workers})
		if parVal != seqVal {
			t.Errorf("workers=%d: result %d, want %d", workers, parVal, seqVal)
		}
		if parOut != seqOut {
			t.Errorf("workers=%d: output mismatch\n got: %q\nwant: %q", workers, parOut, seqOut)
		}
		if rt.Stats.Invocations != 1 {
			t.Errorf("workers=%d: invocations=%d", workers, rt.Stats.Invocations)
		}
		if rt.Stats.Misspecs != 0 {
			t.Errorf("workers=%d: unexpected misspeculations: %d", workers, rt.Stats.Misspecs)
		}
		if workers > 1 && rt.Stats.Checkpoints == 0 {
			t.Errorf("workers=%d: no checkpoints constructed", workers)
		}
	}
}

func TestDeferredOutputOrdered(t *testing.T) {
	_, seqOut, _, parOut, rt := runBoth(t, 30, specrt.Config{Workers: 4, CheckpointPeriod: 7})
	if parOut != seqOut {
		t.Errorf("deferred output out of order:\n got: %q\nwant: %q", parOut, seqOut)
	}
	if rt.Stats.DeferredIO == 0 {
		t.Error("no output was deferred")
	}
}

func TestMisspecInjectionRecovers(t *testing.T) {
	seqVal, seqOut, _, _, _ := runBoth(t, 40, specrt.Config{Workers: 2})
	m := buildMini(40)
	par, err := Parallelize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, parVal, err := Run(par, specrt.Config{
		Workers: 4, MisspecRate: 0.10, Seed: 42, CheckpointPeriod: 5,
	})
	if err != nil {
		t.Fatalf("run with injection: %v", err)
	}
	if rt.Stats.Misspecs == 0 || rt.Stats.Recoveries == 0 {
		t.Fatalf("injection did not trigger recovery: %+v", rt.Stats)
	}
	if parVal != seqVal {
		t.Errorf("result after recovery %d, want %d", parVal, seqVal)
	}
	if rt.Output() != seqOut {
		t.Errorf("output after recovery:\n got: %q\nwant: %q", rt.Output(), seqOut)
	}
}

func TestGenuinePrivacyViolationDetectedAndRecovered(t *testing.T) {
	// Train input behaves privately; the loop carries a flow dependence
	// only when an iteration index crosses half the trip count — the
	// profile (which sees the same input here) WOULD catch it, so instead
	// we use a data pattern that reads a stale value only rarely and
	// drive the profile with a small trip count where the read never
	// fires, then run with a larger count where it does.
	build := func(n int64) *ir.Module {
		m := ir.NewModule("viol")
		buf := m.NewGlobal("buf", 8)
		out := m.NewGlobal("out", 8)
		f := m.NewFunc("main", ir.I64)
		f.NewParam("n", ir.I64)
		b := ir.NewBuilder(f)
		nv := f.Params[0]
		b.For("i", b.I(0), nv, func(iv *ir.Instr) {
			// Iterations < 20 write buf then read it (private).
			// Iteration 20+ reads buf FIRST (carried flow from i-1).
			b.If(b.SLt(b.Ld(iv), b.I(20)), func() {
				b.Store(b.Ld(iv), b.Global(buf), 8)
			}, nil)
			v := b.Load(b.Global(buf), 8)
			b.Store(b.Add(b.Load(b.Global(out), 8), v), b.Global(out), 8)
		})
		b.Ret(b.Load(b.Global(out), 8))
		_ = n
		ir.PromoteAllocas(f)
		return m
	}
	// Sequential reference on the big input.
	seqVal, _, err := RunSequential(build(32), 32)
	if err != nil {
		t.Fatal(err)
	}
	m := build(32)
	par, err := Parallelize(m, Options{TrainArgs: []uint64{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) == 0 {
		t.Skipf("loop not selected (profile saw the dependence):\n%s", par.Summary())
	}
	rt, got, err := Run(par, specrt.Config{Workers: 4, CheckpointPeriod: 4}, 32)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Error("privacy violation was not detected")
	}
	if got != seqVal {
		t.Errorf("result %d, want %d (recovery must restore correctness)", got, seqVal)
	}
}

func TestReductionAcrossWorkers(t *testing.T) {
	// Pure reduction program: sum of f(i) and min of g(i).
	build := func() *ir.Module {
		m := ir.NewModule("redux")
		sum := m.NewGlobal("sum", 8)
		best := m.NewGlobal("best", 8)
		best.Init = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
		f := m.NewFunc("main", ir.I64)
		b := ir.NewBuilder(f)
		b.For("i", b.I(0), b.I(100), func(iv *ir.Instr) {
			v := b.Mul(b.Ld(iv), b.Ld(iv))
			sumAddr := b.Global(sum)
			b.Store(b.Add(b.Load(sumAddr, 8), v), sumAddr, 8)
			d := b.Mul(b.Sub(b.I(37), b.Ld(iv)), b.Sub(b.I(37), b.Ld(iv)))
			bestAddr := b.Global(best)
			cur := b.Load(bestAddr, 8)
			b.Store(b.Select(b.SLt(d, cur), d, cur), bestAddr, 8)
		})
		b.Ret(b.Add(b.Load(b.Global(sum), 8), b.Load(b.Global(best), 8)))
		ir.PromoteAllocas(f)
		return m
	}
	seqVal, _, err := RunSequential(build())
	if err != nil {
		t.Fatal(err)
	}
	m := build()
	par, err := Parallelize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) == 0 {
		t.Fatalf("reduction loop not selected:\n%s", par.Summary())
	}
	for _, workers := range []int{2, 5} {
		rt, got, err := Run(par, specrt.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != seqVal {
			t.Errorf("workers=%d: %d, want %d (stats %+v)", workers, got, seqVal, rt.Stats)
		}
	}
}

func TestParallelizeRejectsRecurrence(t *testing.T) {
	m := ir.NewModule("recur")
	tbl := m.NewGlobal("tbl", 65*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(1), b.I(64), func(iv *ir.Instr) {
		prev := b.Add(b.Global(tbl), b.Mul(b.Sub(b.Ld(iv), b.I(1)), b.I(8)))
		cur := b.Add(b.Global(tbl), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Add(b.Load(prev, 8), b.I(1)), cur, 8)
	})
	b.Ret(b.Load(b.Add(b.Global(tbl), b.I(63*8)), 8))
	ir.PromoteAllocas(f)
	par, err := Parallelize(m, Options{MinLoopSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 0 {
		t.Errorf("recurrence was parallelized:\n%s", par.Summary())
	}
	// The program must still run correctly after (non-)transformation.
	got, _, err := RunSequential(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 63 {
		t.Errorf("result %d, want 63", got)
	}
}
