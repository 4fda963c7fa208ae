package vm

import (
	"testing"

	"privateer/internal/ir"
)

// The software TLB must never outlive the mappings it caches. Each test in
// this file first warms a translation, then performs the operation that is
// required to invalidate it, and finally checks that the next access behaves
// as if the TLB did not exist.

func TestTLBSetProtInvalidation(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(ir.HeapReadOnly, 64)
	if err := as.Write(addr, 8, 42); err != nil {
		t.Fatal(err)
	}
	// Warm both read and write translations.
	if _, err := as.Read(addr, 8); err != nil {
		t.Fatal(err)
	}
	as.SetProt(ir.HeapReadOnly, ProtRead)
	if err := as.Write(addr, 8, 43); err == nil {
		t.Error("store through cached write translation after SetProt(ProtRead) must fault")
	}
	if v, err := as.Read(addr, 8); err != nil || v != 42 {
		t.Errorf("read after protect = %d, %v; want 42, nil", v, err)
	}
	as.SetProt(ir.HeapReadOnly, ProtNone)
	if _, err := as.Read(addr, 8); err == nil {
		t.Error("load through cached read translation after SetProt(ProtNone) must fault")
	}
	// Re-enable and confirm the value survived the protection round-trip.
	as.SetProt(ir.HeapReadOnly, ProtReadWrite)
	if v, err := as.Read(addr, 8); err != nil || v != 42 {
		t.Errorf("read after re-enable = %d, %v; want 42, nil", v, err)
	}
}

func TestTLBCOWResolutionInClone(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(ir.HeapPrivate, 8)
	if err := parent.Write(addr, 8, 111); err != nil {
		t.Fatal(err)
	}
	child := parent.Clone()
	// Child read caches a translation to the page it still shares with the
	// parent.
	if v, _ := child.Read(addr, 8); v != 111 {
		t.Fatalf("child initial read = %d, want 111", v)
	}
	// The write COW-resolves; both the write and the earlier read
	// translation must now name the private duplicate.
	if err := child.Write(addr, 8, 222); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read(addr, 8); v != 222 {
		t.Errorf("child read after COW resolve = %d, want 222 (stale read entry?)", v)
	}
	if v, _ := parent.Read(addr, 8); v != 111 {
		t.Errorf("parent disturbed by child write: %d", v)
	}
	// The parent's pre-clone write translation was flushed at Clone time;
	// writing through it now must COW-resolve, not hit the shared page.
	if err := parent.Write(addr, 8, 333); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read(addr, 8); v != 222 {
		t.Errorf("parent write leaked into child: %d", v)
	}
}

func TestTLBCrossPageUnaligned(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(ir.HeapPrivate, 4*PageSize)
	// Warm single-page translations on both sides of the boundary.
	if err := as.Write(base+PageSize-8, 8, 0x1111111111111111); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(base+PageSize, 8, 0x2222222222222222); err != nil {
		t.Fatal(err)
	}
	// A straddling access must take the byte path and see both halves.
	straddle := base + PageSize - 3
	want := uint64(0x2222222222111111)
	if v, err := as.Read(straddle, 8); err != nil || v != want {
		t.Errorf("cross-page read = %#x, %v; want %#x, nil", v, err, want)
	}
	// A straddling write updates both pages even with warm TLB entries.
	if err := as.Write(straddle, 8, 0xaabbccddeeff0011); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Read(straddle, 8); v != 0xaabbccddeeff0011 {
		t.Errorf("cross-page read-back = %#x", v)
	}
	// Odd sizes (3, 5, 6, 7) stay off the fast path; verify round-trip.
	for _, size := range []int64{3, 5, 6, 7} {
		val := uint64(0x1122334455667788) & sizeMask(size)
		if err := as.Write(base+17, size, val); err != nil {
			t.Fatalf("odd size %d write: %v", size, err)
		}
		if v, _ := as.Read(base+17, size); v != val {
			t.Errorf("odd size %d: got %#x want %#x", size, v, val)
		}
	}
}

// Lazy cloning must not change the observable PagesCopied/PagesMapped
// accounting: reads stay free, each first write to a shared page costs
// exactly one copy, and DirtyPages reports nothing until a write happens.
func TestLazyClonePagesCopiedSemantics(t *testing.T) {
	parent := NewAddressSpace()
	base, _ := parent.Alloc(ir.HeapPrivate, 8*PageSize)
	for p := uint64(0); p < 8; p++ {
		if err := parent.Write(base+p*PageSize, 8, p+1); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	for p := uint64(0); p < 8; p++ {
		if v, _ := child.Read(base+p*PageSize, 8); v != p+1 {
			t.Fatalf("page %d content wrong: %d", p, v)
		}
	}
	if child.Stats.PagesCopied != 0 {
		t.Errorf("reads caused %d page copies, want 0", child.Stats.PagesCopied)
	}
	dirty := 0
	child.DirtyPages(func(base uint64, data []byte) { dirty++ })
	if dirty != 0 {
		t.Errorf("DirtyPages visited %d pages before any write, want 0", dirty)
	}
	if err := child.Write(base, 8, 999); err != nil {
		t.Fatal(err)
	}
	if child.Stats.PagesCopied != 1 {
		t.Errorf("one write caused %d page copies, want 1", child.Stats.PagesCopied)
	}
	child.DirtyPages(func(pb uint64, data []byte) {
		dirty++
		if pb != base&^uint64(PageSize-1) {
			t.Errorf("DirtyPages visited %#x, want %#x", pb, base&^uint64(PageSize-1))
		}
	})
	if dirty != 1 {
		t.Errorf("DirtyPages visited %d pages after one write, want 1", dirty)
	}
	// Rewriting the same page must not double-count.
	if err := child.Write(base+8, 8, 1000); err != nil {
		t.Fatal(err)
	}
	if child.Stats.PagesCopied != 1 {
		t.Errorf("second write to same page: %d copies, want 1", child.Stats.PagesCopied)
	}
}

// TestHeapColorsDistinct pins the heap colors: the first page each heap's
// allocator hands out takes a TLB slot of its own, at least 8 slots from
// every other heap's first page (cyclically), and the system heap still
// starts at page 1, so no sequential or compile-time address moves.
func TestHeapColorsDistinct(t *testing.T) {
	as := NewAddressSpace()
	var slots [ir.NumHeaps]uint64
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		a, err := as.Alloc(h, 8)
		if err != nil {
			t.Fatal(err)
		}
		if h == ir.HeapSystem && a != PageSize {
			t.Errorf("system heap starts at %#x, want %#x", a, PageSize)
		}
		if a&(PageSize-1) != 0 || a == h.Base() {
			t.Errorf("%s heap starts at %#x: want a page boundary past the unmapped page 0", h, a)
		}
		slots[h] = (a >> PageShift) & (tlbSize - 1)
	}
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		for g := h + 1; g < ir.NumHeaps; g++ {
			d := (slots[h] - slots[g]) & (tlbSize - 1)
			if d > tlbSize-d {
				d = tlbSize - d
			}
			if d < 8 {
				t.Errorf("%s and %s first pages sit in TLB slots %d and %d, %d apart; want >= 8",
					h, g, slots[h], slots[g], d)
			}
		}
	}
}

// TestMixedHeapAccessStaysInTLB: on a warm clone, a loop that touches the
// first page of the private, redux, read-only and short-lived heaps in turn,
// and pins the private page's shadow page as a privacy mark does, finds
// every data page it reads in the read TLB and every data page it wrote in
// the write TLB. The shadow page shares its private page's slot (one OR
// apart), so a mark evicts that one entry and nothing else; specrt's
// worker memoizes the shadow page so marks do not repeat the lookup.
func TestMixedHeapAccessStaysInTLB(t *testing.T) {
	parent := NewAddressSpace()
	heaps := []ir.HeapKind{ir.HeapPrivate, ir.HeapRedux, ir.HeapReadOnly, ir.HeapShortLived}
	addrs := make([]uint64, len(heaps))
	for i, h := range heaps {
		addrs[i], _ = parent.Alloc(h, 64)
		if err := parent.Write(addrs[i], 8, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	resident := func(tlb *[tlbSize]tlbEntry, addr uint64) bool {
		pn := addr >> PageShift
		e := &tlb[pn&(tlbSize-1)]
		return e.pn == pn && e.pg != nil
	}
	shadow := ir.ShadowAddr(addrs[0])
	for round := 0; round < 3; round++ {
		if _, err := child.WritablePage(shadow); err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			if round > 0 && i > 0 && !resident(&child.rtlb, a) {
				t.Errorf("round %d: %s page evicted from the read TLB before its read", round, heaps[i])
			}
			if v, err := child.Read(a, 8); err != nil || v != uint64(i+1)+uint64(round) {
				t.Fatalf("round %d: %s read = %d, %v", round, heaps[i], v, err)
			}
			if err := child.Write(a, 8, uint64(i+2)+uint64(round)); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range addrs {
			if !resident(&child.rtlb, a) || !resident(&child.wtlb, a) {
				t.Errorf("round %d: %s page not resident in both TLBs", round, heaps[i])
			}
		}
	}
}
