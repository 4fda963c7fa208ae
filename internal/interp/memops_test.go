package interp

import (
	"errors"
	"runtime"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// memset and memcopy go through the address space a page at a time: once
// warm, neither allocates.
func TestMemOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, treeWalk := range []bool{false, true} {
		m := ir.NewModule("mem")
		g := m.NewGlobal("buf", 2*vm.PageSize)
		f := m.NewFunc("main", ir.I64)
		b := ir.NewBuilder(f)
		dst := b.Add(b.Global(g), b.I(vm.PageSize))
		b.MemSet(b.Global(g), b.I(600), b.I(0xab))
		b.MemCopy(dst, b.Global(g), b.I(600))
		b.Ret(b.Load(b.Add(dst, b.I(592)), 8))
		it := NewExecutor(treeWalk, m, vm.NewAddressSpace())
		run := func() {
			if v, err := it.Run(); err != nil || v != 0xabababababababab {
				t.Fatalf("run = %#x, %v", v, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("treeWalk=%v: %v allocs per warmed memset+memcopy, want 0", treeWalk, allocs)
		}
	}
}

// A 256 MB memset aimed at the null page or at a read-only heap faults
// before it writes a byte, and the host heap does not grow by its length.
func TestLargeMemSetFaultsWithoutAllocating(t *testing.T) {
	const n = 1 << 28
	for _, addr := range []uint64{16, ir.HeapReadOnly.Base() + vm.PageSize} {
		for _, treeWalk := range []bool{false, true} {
			m := ir.NewModule("bigset")
			b := ir.NewBuilder(m.NewFunc("main", ir.I64))
			b.MemSet(b.I(int64(addr)), b.I(n), b.I(0xab))
			b.Ret(b.I(0))
			as := vm.NewAddressSpace()
			as.SetProt(ir.HeapReadOnly, vm.ProtRead)
			it := NewExecutor(treeWalk, m, as)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := it.Run()
			runtime.ReadMemStats(&after)
			var fault *vm.Fault
			if !errors.As(err, &fault) || fault.Addr != addr || !fault.Write {
				t.Errorf("memset at %#x, treeWalk=%v: error %v, want a store fault at %#x", addr, treeWalk, err, addr)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("memset at %#x, treeWalk=%v: allocated %d bytes, want < 1 MB", addr, treeWalk, grew)
			}
		}
	}
}

// An overlapping memcopy across a page boundary moves the bytes memmove
// would, with dst above src and below it, on both executors.
func TestOverlappingMemCopyIsMemmove(t *testing.T) {
	const size = 3 * vm.PageSize
	init := make([]byte, size)
	for i := range init {
		init[i] = byte(i*7 + i>>8)
	}
	for _, c := range []struct{ dst, src, n int64 }{
		{vm.PageSize - 100, vm.PageSize - 300, 900}, // dst above src
		{vm.PageSize - 300, vm.PageSize - 100, 900}, // dst below src
		{vm.PageSize - 5, vm.PageSize - 8, 2 * vm.PageSize},
		{vm.PageSize + 8, vm.PageSize + 3, vm.PageSize},
	} {
		want := append([]byte(nil), init...)
		copy(want[c.dst:c.dst+c.n], want[c.src:c.src+c.n])
		for _, treeWalk := range []bool{false, true} {
			m := ir.NewModule("overlap")
			g := m.NewGlobal("buf", size)
			g.Init = init
			b := ir.NewBuilder(m.NewFunc("main", ir.I64))
			b.MemCopy(b.Add(b.Global(g), b.I(c.dst)), b.Add(b.Global(g), b.I(c.src)), b.I(c.n))
			b.Ret(b.I(0))
			it := NewExecutor(treeWalk, m, vm.NewAddressSpace())
			if _, err := it.Run(); err != nil {
				t.Fatalf("%+v, treeWalk=%v: %v", c, treeWalk, err)
			}
			got := make([]byte, size)
			if err := it.AS.ReadBytes(it.GlobalAddr(g), got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%+v, treeWalk=%v: byte %d is %#x, memmove gives %#x", c, treeWalk, i, got[i], want[i])
					break
				}
			}
		}
	}
}
