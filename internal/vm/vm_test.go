package vm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privateer/internal/ir"
)

func TestReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	addr := ir.HeapSystem.Base() + 2*PageSize + 17
	for _, size := range []int64{1, 2, 4, 8} {
		val := uint64(0x1122334455667788) & sizeMask(size)
		if err := as.Write(addr, size, val); err != nil {
			t.Fatalf("Write size %d: %v", size, err)
		}
		got, err := as.Read(addr, size)
		if err != nil {
			t.Fatalf("Read size %d: %v", size, err)
		}
		if got != val {
			t.Errorf("size %d: got %#x want %#x", size, got, val)
		}
	}
}

func TestReadWriteCrossPage(t *testing.T) {
	as := NewAddressSpace()
	addr := ir.HeapSystem.Base() + 3*PageSize - 3 // straddles a page boundary
	want := uint64(0xdeadbeefcafebabe)
	if err := as.Write(addr, 8, want); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cross-page read = %#x, want %#x", got, want)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	addr := ir.HeapPrivate.Base() + PageSize
	if err := as.Write(addr, 8, math.Float64bits(3.25)); err != nil {
		t.Fatal(err)
	}
	w, err := as.Read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(w); got != 3.25 {
		t.Errorf("got %v want 3.25", got)
	}
}

func TestNullPageFaults(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Read(0, 8); err == nil {
		t.Error("null load should fault")
	}
	if err := as.Write(8, 8, 1); err == nil {
		t.Error("near-null store should fault")
	}
}

func TestProtectionEnforced(t *testing.T) {
	as := NewAddressSpace()
	addr, err := as.Alloc(ir.HeapReadOnly, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr, 8, 42); err != nil {
		t.Fatalf("write before protection: %v", err)
	}
	as.SetProt(ir.HeapReadOnly, ProtRead)
	if err := as.Write(addr, 8, 43); err == nil {
		t.Error("store to read-only heap should fault")
	}
	if v, err := as.Read(addr, 8); err != nil || v != 42 {
		t.Errorf("read after protect = %d, %v; want 42, nil", v, err)
	}
	as.SetProt(ir.HeapReadOnly, ProtNone)
	if _, err := as.Read(addr, 8); err == nil {
		t.Error("load from PROT_NONE heap should fault")
	}
}

func TestAllocTagInvariant(t *testing.T) {
	as := NewAddressSpace()
	heaps := []ir.HeapKind{ir.HeapPrivate, ir.HeapRedux, ir.HeapShortLived,
		ir.HeapReadOnly, ir.HeapUnrestricted, ir.HeapShadow}
	for _, h := range heaps {
		for i := 0; i < 100; i++ {
			addr, err := as.Alloc(h, uint64(1+i*37))
			if err != nil {
				t.Fatal(err)
			}
			if ir.HeapOf(addr) != h {
				t.Fatalf("Alloc(%s) returned address in %s heap", h, ir.HeapOf(addr))
			}
			if ir.TagOf(addr) != h.Tag() {
				t.Fatalf("Alloc(%s) tag = %d, want %d", h, ir.TagOf(addr), h.Tag())
			}
		}
	}
}

// Property: every allocation from every heap carries the heap's tag, and
// distinct live objects never overlap.
func TestAllocProperties(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		as := NewAddressSpace()
		type obj struct{ base, size uint64 }
		var live []obj
		for i, s := range sizes {
			h := ir.HeapKind(1 + i%5) // skip HeapSystem
			addr, err := as.Alloc(h, uint64(s))
			if err != nil {
				return false
			}
			if ir.HeapOf(addr) != h {
				return false
			}
			size := uint64(s)
			if size == 0 {
				size = 1
			}
			for _, o := range live {
				if addr < o.base+o.size && o.base < addr+size {
					return false // overlap
				}
			}
			live = append(live, obj{addr, size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Alloc(ir.HeapShortLived, 100)
	if as.LiveObjects(ir.HeapShortLived) != 1 {
		t.Fatalf("live = %d, want 1", as.LiveObjects(ir.HeapShortLived))
	}
	if err := as.Free(a); err != nil {
		t.Fatal(err)
	}
	if as.LiveObjects(ir.HeapShortLived) != 0 {
		t.Fatalf("live after free = %d, want 0", as.LiveObjects(ir.HeapShortLived))
	}
	b, _ := as.Alloc(ir.HeapShortLived, 100)
	if a != b {
		t.Errorf("free list not reused: %#x then %#x", a, b)
	}
	if err := as.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := as.Free(b); err == nil {
		t.Error("double free should error")
	}
}

func TestCloneIsolation(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(ir.HeapPrivate, 8)
	if err := parent.Write(addr, 8, 111); err != nil {
		t.Fatal(err)
	}
	child := parent.Clone()

	// Child initially sees parent's value.
	if v, _ := child.Read(addr, 8); v != 111 {
		t.Fatalf("child initial read = %d, want 111", v)
	}
	// Child writes are invisible to parent.
	if err := child.Write(addr, 8, 222); err != nil {
		t.Fatal(err)
	}
	if v, _ := parent.Read(addr, 8); v != 111 {
		t.Errorf("parent sees child write: %d", v)
	}
	// Parent writes after clone are invisible to child.
	if err := parent.Write(addr, 8, 333); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read(addr, 8); v != 222 {
		t.Errorf("child sees parent write: %d", v)
	}
	if child.Stats.PagesCopied == 0 {
		t.Error("expected at least one COW page copy in child")
	}
}

// Property: a clone agrees with its parent on all addresses written before
// the clone, and diverges only where one of them writes afterwards.
func TestCloneCOWProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewAddressSpace()
		base, _ := parent.Alloc(ir.HeapPrivate, 4*PageSize)
		before := map[uint64]uint64{}
		for i := 0; i < 50; i++ {
			a := base + uint64(rng.Intn(4*PageSize-8))
			v := rng.Uint64()
			if parent.Write(a, 8, v) != nil {
				return false
			}
			before[a] = v
		}
		child := parent.Clone()
		// Disjoint writes after the clone.
		childWrites := map[uint64]uint64{}
		for i := 0; i < 25; i++ {
			a := base + uint64(rng.Intn(4*PageSize-8))
			v := rng.Uint64()
			if child.Write(a, 8, v) != nil {
				return false
			}
			childWrites[a] = v
		}
		// Parent must be unchanged at all pre-clone addresses not
		// overwritten by itself.
		for a, v := range before {
			got, err := parent.Read(a, 8)
			if err != nil || got != v {
				// a later pre-clone write may overlap; recompute by replay
				// is overkill: only exact-address map is tracked, and
				// overlapping 8-byte writes at different addresses can
				// legitimately clobber. Accept only exact matches when no
				// overlap occurred.
				overlap := false
				for b := range before {
					if b != a && b < a+8 && a < b+8 {
						overlap = true
					}
				}
				if !overlap {
					return false
				}
			}
		}
		// Child sees its own writes.
		for a, v := range childWrites {
			got, err := child.Read(a, 8)
			if err != nil {
				return false
			}
			overlap := false
			for b := range childWrites {
				if b != a && b < a+8 && a < b+8 {
					overlap = true
				}
			}
			if !overlap && got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCloneSharesUntouchedPages(t *testing.T) {
	parent := NewAddressSpace()
	base, _ := parent.Alloc(ir.HeapReadOnly, 64*PageSize)
	for p := uint64(0); p < 64; p++ {
		if err := parent.Write(base+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	// Reading must not copy pages.
	for p := uint64(0); p < 64; p++ {
		if v, _ := child.Read(base+p*PageSize, 8); v != p {
			t.Fatalf("page %d content wrong: %d", p, v)
		}
	}
	if child.Stats.PagesCopied != 0 {
		t.Errorf("reads caused %d page copies, want 0", child.Stats.PagesCopied)
	}
	if err := child.Write(base, 8, 999); err != nil {
		t.Fatal(err)
	}
	if child.Stats.PagesCopied != 1 {
		t.Errorf("one write caused %d page copies, want 1", child.Stats.PagesCopied)
	}
}

func TestHeapPagesVisitsOnlyHeap(t *testing.T) {
	as := NewAddressSpace()
	p1, _ := as.Alloc(ir.HeapPrivate, 8)
	r1, _ := as.Alloc(ir.HeapRedux, 8)
	if err := as.Write(p1, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(r1, 8, 2); err != nil {
		t.Fatal(err)
	}
	count := 0
	as.HeapPages(ir.HeapPrivate, func(base uint64, data []byte) {
		count++
		if ir.HeapOf(base) != ir.HeapPrivate {
			t.Errorf("visited page %#x outside private heap", base)
		}
	})
	if count == 0 {
		t.Error("no private pages visited")
	}
}

func TestShadowAddressPairing(t *testing.T) {
	as := NewAddressSpace()
	p, _ := as.Alloc(ir.HeapPrivate, 128)
	s := ir.ShadowAddr(p)
	if ir.HeapOf(s) != ir.HeapShadow {
		t.Fatalf("shadow of private address lands in %s", ir.HeapOf(s))
	}
	// Writing metadata at the shadow address must not disturb the private
	// byte, and vice versa.
	if err := as.Write(p, 1, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(s, 1, 0x02); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Read(p, 1); v != 0xAA {
		t.Errorf("private byte disturbed: %#x", v)
	}
	if v, _ := as.Read(s, 1); v != 0x02 {
		t.Errorf("shadow byte wrong: %#x", v)
	}
}

func TestHeapExhaustionDetected(t *testing.T) {
	as := NewAddressSpace()
	// Artificially push the bump pointer near the end of the heap.
	hs := as.heaps[ir.HeapPrivate]
	hs.brk = ir.HeapPrivate.Base() + (uint64(1) << ir.TagShift) - PageSize
	if _, err := as.Alloc(ir.HeapPrivate, 2*PageSize); err == nil {
		t.Error("allocation past heap end should fail")
	}
}
