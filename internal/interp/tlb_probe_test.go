package interp_test

import (
	"strings"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// TestTLBProbeParity holds the decoded executor's inline TLB probe
// (vm.ReadHit8, vm.WriteHit8) to the tree-walk, which always goes through
// vm.Read and vm.Write, on the accesses the probe must hand back: an 8-byte
// load and store that straddle a page whose translations both TLBs hold, a
// store into the read-only heap after loads have put its page in the read
// TLB, and a worker's first store to a page it shares copy-on-write with its
// parent. Each runs without hooks and with every hook installed; the two
// executors must leave the same outcome and hook sequence.
func TestTLBProbeParity(t *testing.T) {
	straddle := ir.NewModule("straddle")
	buf := straddle.NewGlobal("buf", 2*vm.PageSize)
	{
		b := ir.NewBuilder(straddle.NewFunc("main", ir.I64))
		base := b.Global(buf)
		// Both TLBs learn the first page; the word at PageSize-4 spans it
		// and the next.
		b.Store(b.Load(b.Add(base, b.I(16)), 8), b.Add(base, b.I(8)), 8)
		p := b.Add(base, b.I(vm.PageSize-4))
		b.Store(b.I(0x1122334455667788), p, 8)
		word := b.Load(p, 8)
		high := b.Load(b.Add(base, b.I(vm.PageSize)), 8)
		b.Ret(b.Xor(word, high))
	}

	readOnly := ir.NewModule("readonly")
	ro := readOnly.NewGlobal("ro", 64)
	ro.Heap = ir.HeapReadOnly
	{
		b := ir.NewBuilder(readOnly.NewFunc("main", ir.I64))
		a := b.Global(ro)
		x := b.Add(b.Load(a, 8), b.Load(a, 8))
		b.Store(x, a, 8)
		b.Ret(x)
	}
	protect := func(it *interp.Interp) { it.AS.SetProt(ir.HeapReadOnly, vm.ProtRead) }
	if it := interp.New(straddle, vm.NewAddressSpace()); it.LayOutGlobals() != nil || it.GlobalAddr(buf)%vm.PageSize != 0 {
		t.Fatal("@buf is not page-aligned: the straddle case would straddle nothing")
	}

	for _, tc := range []struct {
		name    string
		mod     *ir.Module
		prepare func(*interp.Interp)
		want    uint64
		err     string
	}{
		{name: "straddling word", mod: straddle, want: 0x1122334455667788 ^ 0x11223344},
		{name: "store to the read-only heap", mod: readOnly, prepare: protect, err: "protection r--"},
	} {
		fast, slow := both(tc.mod, tc.prepare)
		if fast != slow || fast.ret != tc.want || !strings.Contains(fast.err, tc.err) || (tc.err == "") != (fast.err == "") {
			t.Errorf("%s: want %#x, error %q:\n decoded:   %v\n tree-walk: %v", tc.name, tc.want, tc.err, fast, slow)
		}
		fast, slow, sums := recordedWith(tc.mod, 0, tc.prepare)
		if fast != slow || sums[0] != sums[1] {
			t.Errorf("%s, every hook:\n decoded:   %v hooks %#x\n tree-walk: %v hooks %#x",
				tc.name, fast, sums[0], slow, sums[1])
		}
	}

	// A worker's first store to a page it shares with its parent: the load
	// before it puts the shared page in the read TLB, the store copies it,
	// and the load after must read the copy; the parent keeps its bytes.
	cow := ir.NewModule("cow")
	g := cow.NewGlobal("g", 8)
	{
		b := ir.NewBuilder(cow.NewFunc("main", ir.I64))
		a := b.Global(g)
		b.Store(b.Add(b.Load(a, 8), b.I(1)), a, 8)
		b.Ret(b.Load(a, 8))
	}
	parent := vm.NewAddressSpace()
	master := interp.New(cow, parent)
	if err := master.LayOutGlobals(); err != nil {
		t.Fatal(err)
	}
	addr := master.GlobalAddr(g)
	if err := parent.Write(addr, 8, 41); err != nil {
		t.Fatal(err)
	}
	var got [2]outcome
	for i, treeWalk := range []bool{false, true} {
		it := interp.NewExecutor(treeWalk, cow, parent.Clone())
		it.AdoptLayout(master.GlobalLayout())
		got[i] = finish(it)
	}
	if got[0] != got[1] || got[0].ret != 42 || got[0].err != "" {
		t.Errorf("copy-on-write store: want 42:\n decoded:   %v\n tree-walk: %v", got[0], got[1])
	}
	if v, err := parent.Read(addr, 8); v != 41 || err != nil {
		t.Errorf("the parent reads %d, %v after its workers stored; want 41", v, err)
	}
}
