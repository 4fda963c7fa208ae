package vm

import (
	"strconv"
	"strings"
	"testing"

	"privateer/internal/ir"
)

// Stats counts page-table events only: an access that maps or copies no
// page leaves the structure byte-identical, on the TLB-hit path, the
// TLB-miss path (after a flush) and the page-straddling fallback alike.
func TestStatsCounters(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Alloc(ir.HeapPrivate, 2*PageSize)
	if as.Stats.PagesMapped != 0 {
		t.Errorf("allocation alone mapped %d pages", as.Stats.PagesMapped)
	}
	straddle := a + PageSize - 4
	for _, addr := range []uint64{a, straddle} {
		if err := as.Write(addr, 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	if as.Stats.PagesMapped == 0 {
		t.Error("no pages mapped by the first stores")
	}
	access := func() {
		for _, addr := range []uint64{a, straddle} {
			if err := as.Write(addr, 8, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := as.Read(addr, 8); err != nil {
				t.Fatal(err)
			}
			if _, err := as.WritablePage(addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := as.Stats
	access()
	as.SetProt(ir.HeapPrivate, ProtReadWrite) // flushes both TLBs
	access()
	if as.Stats != before {
		t.Errorf("resident accesses moved Stats: %+v -> %+v", before, as.Stats)
	}
}

func TestProtStringsAndQueries(t *testing.T) {
	if ProtNone.String() != "---" || ProtRead.String() != "r--" || ProtReadWrite.String() != "rw-" {
		t.Error("prot strings wrong")
	}
	as := NewAddressSpace()
	as.SetProt(ir.HeapReadOnly, ProtRead)
	if as.ProtOf(ir.HeapReadOnly) != ProtRead {
		t.Error("ProtOf mismatch")
	}
}

// liveSize returns the rounded size of the live object at addr, or 0.
func liveSize(as *AddressSpace, addr uint64) uint64 {
	sz, _ := as.heaps[ir.HeapOf(addr)].objectSize(addr)
	return sz
}

func TestBrkAndAllocatedBytes(t *testing.T) {
	as := NewAddressSpace()
	b0 := as.Brk(ir.HeapShortLived)
	if _, err := as.Alloc(ir.HeapShortLived, 100); err != nil {
		t.Fatal(err)
	}
	if as.Brk(ir.HeapShortLived) <= b0 {
		t.Error("brk did not advance")
	}
	if liveSize(as, b0) == 0 {
		t.Error("object size of live allocation is zero")
	}
}

func TestFaultError(t *testing.T) {
	as := NewAddressSpace()
	as.SetProt(ir.HeapReadOnly, ProtRead)
	addr := ir.HeapReadOnly.Base() + PageSize
	err := as.Write(addr, 8, 1)
	if err == nil {
		t.Fatal("expected fault")
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !f.Write || f.Addr != addr {
		t.Errorf("fault fields: %+v", f)
	}
	if msg := f.Error(); msg == "" {
		t.Error("empty fault message")
	}
}

func TestDirtyPagesOnlyPrivatePages(t *testing.T) {
	parent := NewAddressSpace()
	a, _ := parent.Alloc(ir.HeapPrivate, 3*PageSize)
	for p := uint64(0); p < 3; p++ {
		if err := parent.Write(a+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	// Untouched child: no dirty pages.
	count := 0
	child.DirtyPages(func(base uint64, data []byte) { count++ })
	if count != 0 {
		t.Errorf("fresh clone has %d dirty pages", count)
	}
	if err := child.Write(a, 8, 99); err != nil {
		t.Fatal(err)
	}
	count = 0
	child.DirtyPages(func(base uint64, data []byte) { count++ })
	if count != 1 {
		t.Errorf("dirty pages = %d, want 1", count)
	}
}

func TestPageDataVisibility(t *testing.T) {
	as := NewAddressSpace()
	addr := ir.HeapPrivate.Base() + 10*PageSize
	if _, ok := as.PageData(addr); ok {
		t.Error("untouched page reported present")
	}
	if err := as.Write(addr, 8, 5); err != nil {
		t.Fatal(err)
	}
	data, ok := as.PageData(addr)
	if !ok || data[0] != 5 {
		t.Errorf("page data = %v, %v", ok, data[:8])
	}
}

func TestZeroSizeAlloc(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Alloc(ir.HeapPrivate, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Alloc(ir.HeapPrivate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("zero-size allocations alias")
	}
}

// TestAllocNeverWraps: a size that would carry the bump pointer past 2^64
// is an error naming the size, and it leaves the heap as it was. Before the
// check, Alloc(64) at 0x1000 then Alloc(2^64−16) returned 0x1040 and left
// brk at 0x1030, so the next Alloc(64) landed inside the first object.
func TestAllocNeverWraps(t *testing.T) {
	as := NewAddressSpace()
	first, err := as.Alloc(ir.HeapSystem, 64)
	if err != nil {
		t.Fatal(err)
	}
	brk := as.Brk(ir.HeapSystem)
	for _, size := range []uint64{1<<64 - 16, 1<<64 - 15, 1<<64 - 1} {
		if addr, err := as.Alloc(ir.HeapSystem, size); err == nil ||
			!strings.Contains(err.Error(), strconv.FormatUint(size, 10)) {
			t.Errorf("Alloc(%d) = %#x, %v; want an error naming the size", size, addr, err)
		}
	}
	if got := as.Brk(ir.HeapSystem); got != brk {
		t.Errorf("a refused allocation moved brk %#x → %#x", brk, got)
	}
	next, err := as.Alloc(ir.HeapSystem, 64)
	if err != nil {
		t.Fatal(err)
	}
	if next < first+64 && first < next+64 {
		t.Errorf("Alloc(64) = %#x overlaps the live object at %#x", next, first)
	}
}
