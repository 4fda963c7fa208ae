package interp_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/randprog"
	"privateer/internal/vm"
)

// The tests of this file hold the decoded executor — frame image, weighted
// steps, fused opcodes — to the tree-walking one, which executes every
// constant where it stands and fuses nothing.

// outcome is everything a finished or aborted run leaves behind.
type outcome struct {
	ret    uint64
	err    string
	steps  int64
	out    string
	memory uint64 // digest of every page the run wrote
	// sepChecks and predictions are the interpreter's check counters.
	sepChecks, predictions int64
}

func (o outcome) String() string {
	return fmt.Sprintf("ret=%d err=%q steps=%d out=%q memory=%#x checks=%d/%d",
		o.ret, o.err, o.steps, o.out, o.memory, o.sepChecks, o.predictions)
}

// finish runs it and collects its outcome.
func finish(it *interp.Interp, args ...uint64) outcome {
	ret, err := it.Run(args...)
	o := outcome{ret: ret, steps: it.Steps, out: it.Out.String(),
		sepChecks: it.SepChecks, predictions: it.Predictions}
	if err != nil {
		o.err = err.Error()
	}
	h := fnv.New64a()
	it.AS.DirtyPages(func(base uint64, data []byte) {
		word(h, base)
		h.Write(data)
	})
	o.memory = h.Sum64()
	return o
}

func word(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// both runs mod under the two executors, prepare applied to each
// interpreter first, and returns decoded, tree-walk.
func both(mod *ir.Module, prepare func(*interp.Interp), args ...uint64) (outcome, outcome) {
	var got [2]outcome
	for i, treeWalk := range []bool{false, true} {
		it := interp.NewExecutor(treeWalk, mod, vm.NewAddressSpace())
		if prepare != nil {
			prepare(it)
		}
		got[i] = finish(it, args...)
	}
	return got[0], got[1]
}

// loopWithCalls builds a loop whose body calls a function that computes an
// address, stores, loads back and prints: hoisted constants and a hoisted
// global in caller and callee, every fused opcode but the float one, a call
// and a hook-free store and load per trip.
func loopWithCalls() *ir.Module {
	m := ir.NewModule("loopcalls")
	g := m.NewGlobal("cells", 8*8)
	sq := m.NewFunc("sq", ir.I64)
	x := sq.NewParam("x", ir.I64)
	{
		b := ir.NewBuilder(sq)
		p := b.Add(b.Global(g), b.Mul(x, b.I(8)))
		b.Store(b.Mul(x, x), p, 8)
		b.Print("%d ", b.Load(b.Add(b.Mul(x, b.I(8)), b.Global(g)), 8))
		b.Ret(b.Load(p, 8))
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("i", b.I(0), b.I(6), func(iv *ir.Instr) {
		b.St(b.Add(b.Ld(acc), b.Call(sq, b.Ld(iv))), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	return m
}

// movedOpcodes builds a main whose one block prints, memsets, memcopies,
// calls tick (which movingCalls answers) and calls dbl (which runs), with
// hoisted constants and globals between them, then prints and returns what
// it copied.
func movedOpcodes() *ir.Module {
	m := ir.NewModule("moved")
	g := m.NewGlobal("buf", 64)
	tb := ir.NewBuilder(m.NewFunc("tick", ir.I64))
	tb.Ret(tb.I(1))
	dbl := m.NewFunc("dbl", ir.I64)
	x := dbl.NewParam("x", ir.I64)
	db := ir.NewBuilder(dbl)
	db.Ret(db.Add(x, x))
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	b.Print("start %d\n", b.I(5))
	b.MemSet(b.Global(g), b.I(32), b.I(0x5a))
	b.MemCopy(b.Add(b.Global(g), b.I(32)), b.Global(g), b.I(16))
	t := b.Call(m.Funcs["tick"])
	v := b.Call(dbl, b.Add(b.Load(b.Add(b.Global(g), b.I(40)), 8), t))
	b.Print("%x %d\n", v, t)
	b.Ret(v)
	return m
}

// movingCalls installs a CallOverride that answers a call to tick itself,
// with 7, moving Steps back by 3, and moves Steps on by 2 before any other
// call runs: the count jumps inside a call, so a budget can run out in a
// callee's first instruction or right after a call returns, and a block
// whose charge passed the budget on entry can fit it after tick.
func movingCalls(it *interp.Interp) {
	it.Hooks.CallOverride = func(fr *interp.Frame, in *ir.Instr, callee *ir.Function, args []uint64) (uint64, bool, error) {
		if callee.Name == "tick" {
			it.Steps -= 3
			return 7, true, nil
		}
		it.Steps += 2
		return 0, false, nil
	}
}

// TestStepLimitSweepParity aborts three programs at every step budget from 1
// to one past their full length, with every hook and a recording
// Speculator. A budget can run out inside a weight — on a hoisted constant,
// or between the components of a fused opcode — and after each of print,
// memset, memcopy and a call; the decoded executor must then stop where the
// tree-walk does: same error, same Steps, same output, same memory, the same
// hooks at the same step counts.
func TestStepLimitSweepParity(t *testing.T) {
	cfg := randprog.DefaultConfig(3)
	for _, tc := range []struct {
		mod     *ir.Module
		prepare func(*interp.Interp)
		args    []uint64
	}{
		{loopWithCalls(), nil, nil},
		{randprog.Generate(cfg), nil, []uint64{uint64(cfg.Iterations)}},
		{movedOpcodes(), movingCalls, nil},
	} {
		if err := ir.Verify(tc.mod); err != nil {
			t.Fatal(err)
		}
		full, _, _ := recordedWith(tc.mod, 0, tc.prepare, tc.args...)
		if full.err != "" {
			t.Fatalf("%s: %s", tc.mod.Name, full.err)
		}
		for limit := int64(1); limit <= full.steps+1; limit++ {
			fast, slow, sums := recordedWith(tc.mod, limit, tc.prepare, tc.args...)
			if fast != slow || sums[0] != sums[1] {
				t.Fatalf("%s, StepLimit %d:\n decoded:   %v hooks %#x\n tree-walk: %v hooks %#x",
					tc.mod.Name, limit, fast, sums[0], slow, sums[1])
			}
			if (fast.err == "") != (limit >= full.steps) {
				t.Fatalf("%s, StepLimit %d of %d steps: err = %q", tc.mod.Name, limit, full.steps, fast.err)
			}
		}
	}
}

// recorder is a Speculator that folds every privacy check into h, as
// recordHooks folds a hook firing.
type recorder struct {
	site func(kind uint64, in *ir.Instr, vs ...uint64)
}

func (r recorder) Private(in *ir.Instr, addr uint64, count, stride, size int64, write bool) error {
	kind := uint64(9)
	if write {
		kind = 10
	}
	r.site(kind, in, addr, uint64(count), uint64(stride), uint64(size))
	return nil
}

// recordHooks installs every hook and a recording Speculator on it and folds
// each firing — which hook, the instruction, address and size, Interp.Steps
// at that moment, and the frame's values of the instruction and of its
// operands, so a fused component that skipped its own slot shows — into h.
func recordHooks(it *interp.Interp, h hash.Hash64) {
	site := func(kind uint64, in *ir.Instr, vs ...uint64) {
		word(h, kind, uint64(it.Steps))
		if in != nil {
			h.Write([]byte(in.Blk.Fn.Name))
			word(h, uint64(in.ValueID()))
		}
		word(h, vs...)
	}
	framed := func(kind uint64, fr *interp.Frame, in *ir.Instr, vs ...uint64) {
		site(kind, in, vs...)
		if in != nil {
			word(h, fr.Value(in))
			for _, a := range in.Args {
				word(h, fr.Value(a))
			}
		}
	}
	it.Spec = recorder{site}
	it.Hooks = interp.Hooks{
		OnBlock: func(fr *interp.Frame, from, to *ir.Block) {
			site(1, nil, uint64(from.Index), uint64(to.Index))
			h.Write([]byte(fr.Fn.Name))
		},
		OnEnter: func(fr *interp.Frame) { site(2, nil, uint64(fr.Depth)); h.Write([]byte(fr.Fn.Name)) },
		OnExit:  func(fr *interp.Frame) { site(3, nil, uint64(fr.Depth)) },
		OnLoad: func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
			framed(4, fr, in, addr, uint64(size))
		},
		OnStore: func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
			framed(5, fr, in, addr, uint64(size))
		},
		OnAlloc: func(fr *interp.Frame, in *ir.Instr, addr, size uint64) { framed(6, fr, in, addr, size) },
		OnFree:  func(fr *interp.Frame, in *ir.Instr, addr uint64) { framed(7, fr, in, addr) },
		OnPrint: func(in *ir.Instr, text string) bool {
			site(8, in)
			h.Write([]byte(text))
			return false
		},
	}
}

// TestHookSequenceParity requires the two executors to fire the same hooks
// and make the same Speculator calls in the same order with the same
// arguments at the same step counts, and to count the same checks, on the
// plain module and on the one core.Parallelize leaves — run sequentially
// with checks on, so its check_heap, predict and private_* sites sit next
// to fused neighbours.
func TestHookSequenceParity(t *testing.T) {
	var sepChecks, predictions int64
	check := func(name string, mod *ir.Module, args ...uint64) {
		t.Helper()
		var sums [2]hash.Hash64
		i := 0
		fast, slow := both(mod, func(it *interp.Interp) {
			sums[i] = fnv.New64a()
			recordHooks(it, sums[i])
			i++
		}, args...)
		if fast != slow {
			t.Errorf("%s:\n decoded:   %v\n tree-walk: %v", name, fast, slow)
		}
		if fast.steps == 0 {
			t.Errorf("%s: nothing ran", name)
		}
		if sums[0].Sum64() != sums[1].Sum64() {
			t.Errorf("%s: hook sequence digests differ: decoded %#x, tree-walk %#x",
				name, sums[0].Sum64(), sums[1].Sum64())
		}
		sepChecks += fast.sepChecks
		predictions += fast.predictions
	}
	for seed := int64(1); seed <= 20; seed++ {
		cfg := randprog.DefaultConfig(seed)
		full := uint64(cfg.Iterations)
		check(fmt.Sprintf("randprog %d", seed), randprog.Generate(cfg), full)
		par, err := core.Parallelize(randprog.Generate(cfg), core.Options{TrainArgs: []uint64{randprog.TrainTrips(cfg)}})
		if err != nil {
			t.Fatalf("randprog %d: %v", seed, err)
		}
		check(fmt.Sprintf("randprog %d, parallelized", seed), par.Mod, full)
	}
	for _, p := range progs.All() {
		check(p.Name, p.Build(p.Train))
		par, err := core.Parallelize(p.Build(p.Train), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		check(p.Name+", parallelized", par.Mod)
	}
	if sepChecks == 0 || predictions == 0 {
		t.Errorf("the parallelized programs counted %d separation checks and %d predictions; want some of each",
			sepChecks, predictions)
	}
}

// recorded runs mod under the two executors with the given step budget
// (0: the default), every hook and a recording Speculator, and returns
// decoded, tree-walk and the two hook sequence digests.
func recorded(mod *ir.Module, limit int64, args ...uint64) (outcome, outcome, [2]uint64) {
	return recordedWith(mod, limit, nil, args...)
}

// recordedWith is recorded with prepare, if not nil, applied to each
// interpreter after the hooks are installed.
func recordedWith(mod *ir.Module, limit int64, prepare func(*interp.Interp), args ...uint64) (outcome, outcome, [2]uint64) {
	var sums [2]hash.Hash64
	i := 0
	fast, slow := both(mod, func(it *interp.Interp) {
		sums[i] = fnv.New64a()
		recordHooks(it, sums[i])
		if prepare != nil {
			prepare(it)
		}
		it.StepLimit = limit
		i++
	}, args...)
	return fast, slow, [2]uint64{sums[0].Sum64(), sums[1].Sum64()}
}

// TestParallelizedStepLimitSweepParity aborts modules core.Parallelize
// leaves at every step budget from 1 to their full length, run sequentially
// with checks on, every hook installed and a recording Speculator, so
// budgets also run out next to check_heap, predict and private_* sites and
// inside the blocks around them. At every budget the two executors must
// leave the same outcome and fire the same hooks and Speculator calls at
// the same step counts. The inputs are small enough that the sweep stays
// cheap: a randprog seed and dijkstra on two nodes. The five paper programs
// at train, parallelized, are what a speculative worker executes; they run
// at the default budget, at exactly their length and one short of it.
func TestParallelizedStepLimitSweepParity(t *testing.T) {
	cfg := randprog.DefaultConfig(3)
	rp, err := core.Parallelize(randprog.Generate(cfg), core.Options{TrainArgs: []uint64{randprog.TrainTrips(cfg)}})
	if err != nil {
		t.Fatal(err)
	}
	dijkstra := progs.ByName("dijkstra")
	dj, err := core.Parallelize(dijkstra.Build(progs.Input{Name: "two", N: 2}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sepChecks, predictions int64
	for _, tc := range []struct {
		name string
		mod  *ir.Module
		args []uint64
	}{
		{"randprog 3, parallelized", rp.Mod, []uint64{randprog.TrainTrips(cfg)}},
		{"dijkstra N=2, parallelized", dj.Mod, nil},
	} {
		full, _, _ := recorded(tc.mod, 0, tc.args...)
		if full.err != "" {
			t.Fatalf("%s: %s", tc.name, full.err)
		}
		sepChecks += full.sepChecks
		predictions += full.predictions
		for limit := int64(1); limit <= full.steps; limit++ {
			fast, slow, sums := recorded(tc.mod, limit, tc.args...)
			if fast != slow || sums[0] != sums[1] {
				t.Fatalf("%s, StepLimit %d:\n decoded:   %v hooks %#x\n tree-walk: %v hooks %#x",
					tc.name, limit, fast, sums[0], slow, sums[1])
			}
			if (fast.err == "") != (limit == full.steps) {
				t.Fatalf("%s, StepLimit %d of %d steps: err = %q", tc.name, limit, full.steps, fast.err)
			}
		}
	}
	for _, p := range progs.All() {
		par, err := core.Parallelize(p.Build(p.Train), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		full, _, _ := recorded(par.Mod, 0)
		if full.err != "" {
			t.Fatalf("%s, parallelized: %s", p.Name, full.err)
		}
		sepChecks += full.sepChecks
		predictions += full.predictions
		for _, limit := range []int64{0, full.steps, full.steps - 1} {
			fast, slow, sums := recorded(par.Mod, limit)
			if fast != slow || sums[0] != sums[1] {
				t.Fatalf("%s, parallelized, StepLimit %d:\n decoded:   %v hooks %#x\n tree-walk: %v hooks %#x",
					p.Name, limit, fast, sums[0], slow, sums[1])
			}
			if (fast.err == "") != (limit != full.steps-1) {
				t.Fatalf("%s, parallelized, StepLimit %d of %d steps: err = %q", p.Name, limit, full.steps, fast.err)
			}
		}
	}
	if sepChecks == 0 || predictions == 0 {
		t.Errorf("the swept modules counted %d separation checks and %d predictions; want some of each",
			sepChecks, predictions)
	}
}

// checksModule builds main(mode): a null check_heap and an equal
// prediction that pass, privacy and reduction marks with no Speculator to
// receive them, then the check that fails for mode 0 (check_heap of a
// system-heap global against the read-only heap), 1 (predict mode == 2) or
// 2 (misspec); it returns mode + 40. failing holds those three checks.
func checksModule() (m *ir.Module, g *ir.Global, failing [3]*ir.Instr) {
	m = ir.NewModule("checks")
	g = m.NewGlobal("g", 8)
	f := m.NewFunc("main", ir.I64)
	mode := f.NewParam("mode", ir.I64)
	b := ir.NewBuilder(f)
	b.CheckHeap(b.P(0), ir.HeapReadOnly)
	b.Predict(b.I(7), b.I(7))
	b.PrivateWrite(b.Global(g), 8)
	b.PrivateReadSpan(b.Global(g), b.I(1), b.I(8), 8)
	b.ReduxWrite(b.Global(g), 8, ir.ReduxAddI64)
	b.If(b.Eq(mode, b.I(0)), func() { failing[0] = b.CheckHeap(b.Global(g), ir.HeapReadOnly) }, nil)
	b.If(b.Eq(mode, b.I(1)), func() { failing[1] = b.Predict(mode, b.I(2)) }, nil)
	b.If(b.Eq(mode, b.I(2)), func() { failing[2] = b.Misspec() }, nil)
	b.Ret(b.Add(mode, b.I(40)))
	return m, g, failing
}

// TestCheckParity pins the inline checks in both executors. With checks on,
// each failing check stops the run with its one MisspecError — the reason
// text of its kind, the faulting address for check_heap only, the check as
// Instr — after counting itself; with checks off every mode runs to its
// return and counts nothing. Steps, counters and memory agree throughout,
// and the marks with no Speculator cost their step and nothing else.
func TestCheckParity(t *testing.T) {
	m, g, failing := checksModule()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	want := [3]struct {
		reason                 string
		addr                   bool
		sepChecks, predictions int64
	}{
		{"separation violated", true, 2, 1},
		{"value prediction failed", false, 1, 2},
		{"control speculation violated", false, 1, 1},
	}
	for mode := range failing {
		for _, off := range []bool{false, true} {
			fast, slow := both(m, func(it *interp.Interp) { it.ChecksOff = off }, uint64(mode))
			if fast != slow {
				t.Errorf("mode %d, checks off %v:\n decoded:   %v\n tree-walk: %v", mode, off, fast, slow)
			}
			if off {
				if fast.err != "" || fast.ret != uint64(mode)+40 || fast.sepChecks+fast.predictions != 0 {
					t.Errorf("mode %d, checks off: %v; want a clean return of %d and no checks counted",
						mode, fast, mode+40)
				}
				continue
			}
			w := want[mode]
			if fast.sepChecks != w.sepChecks || fast.predictions != w.predictions {
				t.Errorf("mode %d: counted %d/%d checks, want %d/%d",
					mode, fast.sepChecks, fast.predictions, w.sepChecks, w.predictions)
			}
			for _, treeWalk := range []bool{false, true} {
				it := interp.NewExecutor(treeWalk, m, vm.NewAddressSpace())
				_, err := it.Run(uint64(mode))
				var me *interp.MisspecError
				if !errors.As(err, &me) {
					t.Fatalf("mode %d, tree-walk %v: error %v, want a misspeculation", mode, treeWalk, err)
				}
				wantAddr := uint64(0)
				if w.addr {
					wantAddr = it.GlobalAddr(g)
				}
				if me.Reason != w.reason || me.Addr != wantAddr || me.Instr != failing[mode] {
					t.Errorf("mode %d, tree-walk %v: %q at %#x by %v; want %q at %#x by %v",
						mode, treeWalk, me.Reason, me.Addr, me.Instr, w.reason, wantAddr, failing[mode])
				}
			}
		}
	}
}

// built is a use-before-def module and the one constant of its entry
// function the decoder may not hoist.
type built struct {
	mod    *ir.Module
	pinned *ir.Instr
}

// TestUseBeforeDefParity runs hand-built IR the verifier admits in which a
// use can execute before the constant it names: the slot then holds 0, or
// the constant from an earlier trip. The decoder must leave exactly those
// constants executed in place, and the results must be the tree-walk's.
func TestUseBeforeDefParity(t *testing.T) {
	cases := []struct {
		name  string
		build func() built
		args  []uint64
		want  uint64
	}{
		// The use sits in the loop header, the constant in the latch: the
		// first trip adds 0, the next two add 100.
		{name: "later block", want: 200, build: func() built {
			m := ir.NewModule("later")
			f := m.NewFunc("main", ir.I64)
			b := ir.NewBuilder(f)
			head, latch, exit := b.NewBlock("head"), b.NewBlock("latch"), b.NewBlock("exit")
			zero := b.I(0)
			b.Br(head)
			b.SetBlock(head)
			i, acc := b.Phi(ir.I64), b.Phi(ir.I64)
			use := b.Add(acc, zero)
			b.Br(latch)
			b.SetBlock(latch)
			k := b.I(100)
			use.Args[1] = k
			next := b.Add(i, b.I(1))
			b.CondBr(b.SLt(next, b.I(3)), head, exit)
			b.SetBlock(exit)
			b.Ret(use)
			ir.AddIncoming(i, zero, f.Entry())
			ir.AddIncoming(i, next, latch)
			ir.AddIncoming(acc, zero, f.Entry())
			ir.AddIncoming(acc, use, latch)
			return built{m, k}
		}},
		// The constant sits in a branch arm; with a zero argument the path
		// to its use skips the arm.
		{name: "skipped arm", args: []uint64{0}, want: 1, build: skippedArm},
		{name: "taken arm", args: []uint64{1}, want: 8, build: skippedArm},
		// The entry block is its own loop target and adds the constant to a
		// sum in memory above the constant's definition: 0 + 5 + 5.
		{name: "entry is a loop target", want: 10, build: func() built {
			m := ir.NewModule("entryloop")
			cnt, sum := m.NewGlobal("cnt", 8), m.NewGlobal("sum", 8)
			f := m.NewFunc("main", ir.I64)
			b := ir.NewBuilder(f)
			exit := b.NewBlock("exit")
			one := b.I(1)
			total := b.Add(b.Load(b.Global(sum), 8), one)
			k := b.I(5)
			total.Args[1] = k
			b.Store(total, b.Global(sum), 8)
			n := b.Add(b.Load(b.Global(cnt), 8), one)
			b.Store(n, b.Global(cnt), 8)
			b.CondBr(b.SLt(n, b.I(3)), f.Entry(), exit)
			b.SetBlock(exit)
			b.Ret(total)
			return built{m, k}
		}},
	}
	for _, tc := range cases {
		bt := tc.build()
		if err := ir.Verify(bt.mod); err != nil {
			t.Fatalf("%s: the verifier rejects it: %v", tc.name, err)
		}
		fast, slow := both(bt.mod, nil, tc.args...)
		if fast != slow || fast.err != "" || fast.ret != tc.want {
			t.Errorf("%s: want %d:\n decoded:   %v\n tree-walk: %v", tc.name, tc.want, fast, slow)
		}
		left := interp.ExecutedInPlace(interp.SharedProgram(bt.mod), bt.mod.Entry())
		if len(left) != 1 || left[0] != bt.pinned {
			t.Errorf("%s: executed in place %v, want only %v", tc.name, left, bt.pinned)
		}
	}
}

func skippedArm() built {
	m := ir.NewModule("arm")
	f := m.NewFunc("main", ir.I64)
	p := f.NewParam("p", ir.I64)
	b := ir.NewBuilder(f)
	arm, join := b.NewBlock("arm"), b.NewBlock("join")
	b.CondBr(p, arm, join)
	b.SetBlock(arm)
	k := b.I(7)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(b.Add(k, b.I(1)))
	return built{m, k}
}

// TestUnverifiedFunctionDecodesPlain pins that a function ir.Verify rejects
// for a foreign operand still decodes — the decoder's ValueID-indexed table
// is not indexed with the foreign ID — and hoists and fuses nothing.
func TestUnverifiedFunctionDecodesPlain(t *testing.T) {
	m := ir.NewModule("foreign")
	ob := ir.NewBuilder(m.NewFunc("other", ir.Void))
	var far *ir.Instr
	for i := int64(0); i < 50; i++ {
		far = ob.I(i)
	}
	ob.Ret()
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Add(b.Mul(b.I(2), b.I(3)), far))
	if ir.Verify(m) == nil {
		t.Fatal("the verifier admits a foreign operand")
	}
	prog := interp.SharedProgram(m)
	if left := interp.ExecutedInPlace(prog, f); len(left) != 2 {
		t.Errorf("executed in place %v, want both constants", left)
	}
	for _, e := range interp.DecodedBlocks(prog, f)[f.Entry()] {
		if e.Weight != 1 {
			t.Errorf("dispatch %s stands for %d instructions, want 1", e.Op, e.Weight)
		}
	}
}

// TestMalformedBlockParity runs IR ir.Verify rejects through both
// executors, with every hook and a recording Speculator, at the default
// step budget and at every budget up to one past the run: blocks that end
// without a terminator, one of them all φs, which stop the run with an
// error after one step for the missing terminator; and a privacy check
// whose size does not fit a decoded entry, which must reach the Speculator
// with its own size, not a truncated one. A budget that runs out in such a
// block must stop both executors at the same step.
func TestMalformedBlockParity(t *testing.T) {
	unterminated := func(phisOnly bool) *ir.Module {
		m := ir.NewModule("unterminated")
		f := m.NewFunc("main", ir.I64)
		b := ir.NewBuilder(f)
		tail := b.NewBlock("tail")
		sum := b.Add(b.I(1), b.I(2))
		b.Br(tail)
		b.SetBlock(tail)
		ir.AddIncoming(b.Phi(ir.I64), sum, f.Entry())
		if !phisOnly {
			b.Add(sum, b.I(3))
		}
		return m
	}
	wide := ir.NewModule("wide")
	g := wide.NewGlobal("g", 8)
	b := ir.NewBuilder(wide.NewFunc("main", ir.I64))
	b.PrivateRead(b.Global(g), 1<<32+8)
	b.Ret(b.I(0))
	for _, tc := range []struct {
		name string
		mod  *ir.Module
		err  string // "" for a clean return
	}{
		{"unterminated block", unterminated(false), "unterminated block"},
		{"unterminated block of φs", unterminated(true), "unterminated block"},
		{"privacy check wider than a decoded size", wide, ""},
	} {
		it := interp.New(tc.mod, vm.NewAddressSpace())
		full := finish(it)
		if (full.err == "") != (tc.err == "") || !strings.Contains(full.err, tc.err) {
			t.Fatalf("%s: decoded %v, want error %q", tc.name, full, tc.err)
		}
		// The budgets before the default one: a tree-walk that kept walking
		// an unterminated block fails at full.steps + 1 instead of running on.
		var limits []int64
		for limit := int64(1); limit <= full.steps+1; limit++ {
			limits = append(limits, limit)
		}
		for _, limit := range append(limits, 0) {
			fast, slow, sums := recorded(tc.mod, limit)
			if fast != slow || sums[0] != sums[1] {
				t.Fatalf("%s, StepLimit %d:\n decoded:   %v hooks %#x\n tree-walk: %v hooks %#x",
					tc.name, limit, fast, sums[0], slow, sums[1])
			}
		}
	}
}
