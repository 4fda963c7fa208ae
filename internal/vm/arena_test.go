package vm

import (
	"bytes"
	"testing"

	"privateer/internal/ir"
)

// respawnHeaps are the heaps a speculative worker writes first after every
// spawn: its stack, its private data, the shadow metadata and the reduction
// accumulators.
var respawnHeaps = [...]ir.HeapKind{ir.HeapSystem, ir.HeapPrivate, ir.HeapShadow, ir.HeapRedux}

// residentParent returns a space with one written page in each of
// respawnHeaps, and the addresses written.
func residentParent(t *testing.T) (*AddressSpace, []uint64) {
	t.Helper()
	parent := NewAddressSpace()
	var addrs []uint64
	for i, h := range respawnHeaps {
		addr := h.Base() + 3*PageSize + 64
		if err := parent.Write(addr, 8, 0x1111*uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	return parent, addrs
}

// TestRespawnCycleAllocatesNothing pins the arena's gain where it cannot
// drift: what a pooled worker space does once per spawn — re-clone from a
// resident parent, take the first store to one page in each of four heaps
// (a root copy, then per heap three interior copies, a leaf copy and a COW
// page duplicate), collect its dirty pages, and release — reaches the Go
// allocator not at all once one cycle has stocked the arena.
func TestRespawnCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations defeat AllocsPerRun")
	}
	parent, addrs := residentParent(t)
	w := parent.Clone()
	dirty := 0
	count := func(uint64, []byte) { dirty++ }
	cycle := func() {
		w.RecloneFrom(parent)
		for _, a := range addrs {
			if err := w.Write(a, 8, 7); err != nil {
				t.Fatal(err)
			}
		}
		dirty = 0
		w.DirtyPages(count)
		w.Release()
	}
	cycle() // stocks the arena
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a warmed respawn cycle allocates %.0f objects, want 0", allocs)
	}
	if dirty != len(addrs) {
		t.Errorf("cycle dirtied %d pages, want %d", dirty, len(addrs))
	}
	for i, a := range addrs {
		if v, _ := parent.Read(a, 8); v != 0x1111*uint64(i+1) {
			t.Errorf("parent page %d reads %#x after the cycles", i, v)
		}
	}
}

// arenaIsClean reports whether every parked node is as reclaim promises:
// no child, no entry, no dirty state.
func arenaIsClean(a *arena) bool {
	for _, nd := range a.interiors {
		for _, kid := range nd.kids {
			if kid != nil {
				return false
			}
		}
		if nd.dirty != 0 || nd.entries != nil {
			return false
		}
	}
	for _, nd := range a.leaves {
		for _, e := range nd.entries {
			if e.pg != nil || e.cow {
				return false
			}
		}
		if nd.dirty != 0 || nd.dirtyBits != [radixFanout / 64]uint64{} || nd.kids != nil {
			return false
		}
	}
	return true
}

// poisonArena scribbles 0xDB over every parked page and points every slot
// of every parked node at a sentinel: a childless node that panics if the
// table ever descends into it, and a 0xDB page a read would expose.
func poisonArena(a *arena) {
	sentinelPage := &page{}
	for i := range sentinelPage.data {
		sentinelPage.data[i] = 0xDB
	}
	for _, pg := range a.pages {
		pg.data = sentinelPage.data
	}
	sentinelNode := &radixNode{}
	for _, nd := range a.interiors {
		for i := range nd.kids {
			nd.kids[i] = sentinelNode
		}
	}
	for _, nd := range a.leaves {
		for i := range nd.entries {
			nd.entries[i] = pageEntry{pg: sentinelPage}
		}
	}
}

// TestArenaPoisonedRecycling makes a wrong arena loud. Recycling can only
// fail silently — a stale slot or a stale byte reads as plausible data — so
// the test first holds Release to its promise (parked nodes reference
// nothing), then poisons everything parked and requires the next life of
// the space to show none of it: path copies overwrite a recycled node
// whole, a demand-zero page is cleared at hand-out, a COW duplicate is
// overwritten whole, and the parent is untouched throughout.
func TestArenaPoisonedRecycling(t *testing.T) {
	other, oaddrs := residentParent(t)
	w := other.Clone()
	for _, a := range oaddrs {
		// A COW duplicate plus a demand-zero page in each heap, and a fresh
		// branch far away, so all three free lists are stocked.
		if err := w.Write(a, 8, 0xAB); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(a+PageSize, 8, 0xCD); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(a+(1<<30), 8, 0xEF); err != nil {
			t.Fatal(err)
		}
	}
	w.Release()
	a := &w.arena
	if len(a.pages) < 3*len(oaddrs) || len(a.leaves) < 2*len(oaddrs) || len(a.interiors) < 3*len(oaddrs) {
		t.Fatalf("release parked %d pages, %d leaves, %d interiors: the owned subtree was not reclaimed",
			len(a.pages), len(a.leaves), len(a.interiors))
	}
	if !arenaIsClean(a) {
		t.Fatal("release parked a node that still references its old tree")
	}
	if st := w.PageTable(); st.ResidentPages != 0 || st.Nodes != 1 {
		t.Fatalf("released space reports %d resident pages in %d nodes", st.ResidentPages, st.Nodes)
	}

	poisonArena(a)
	parent, addrs := residentParent(t)
	want := parent.PageTable()
	w.RecloneFrom(parent)
	if got := w.PageTable(); got.ResidentPages != want.ResidentPages || got.HeapResident != want.HeapResident {
		t.Fatalf("recloned space reports residents %v, parent has %v", got.HeapResident, want.HeapResident)
	}
	for i, addr := range addrs {
		val := 0x1111 * uint64(i+1)
		if v, _ := w.Read(addr, 8); v != val {
			t.Fatalf("heap %d: child reads %#x from the parent's page, want %#x", i, v, val)
		}
		// Same leaf as the parent's page, so the five nodes drawn are all
		// path copies and the page is demand-zero.
		if v, err := w.Read(addr+PageSize, 8); err != nil || v != 0 {
			t.Fatalf("heap %d: never-touched address reads %#x (%v), want 0", i, v, err)
		}
		if err := w.Write(addr+8, 8, 0x77); err != nil {
			t.Fatal(err)
		}
		if v, _ := w.Read(addr, 8); v != val {
			t.Fatalf("heap %d: child's COW duplicate reads %#x beside its own store, want %#x", i, v, val)
		}
		if v, _ := parent.Read(addr, 8); v != val {
			t.Fatalf("heap %d: parent reads %#x after the child wrote, want %#x", i, v, val)
		}
		if v, _ := parent.Read(addr+8, 8); v != 0 {
			t.Fatalf("heap %d: child's store reached the parent (%#x)", i, v)
		}
	}
	pd, _ := w.PageData(addrs[1])
	if bytes.IndexByte(pd, 0xDB) >= 0 {
		t.Fatal("a COW duplicate kept poison from the recycled page")
	}
	if got := parent.PageTable(); got.Nodes != want.Nodes || got.HeapResident != want.HeapResident {
		t.Fatalf("parent's table changed under the child: %+v, was %+v", got, want)
	}

	// Second life, stocked only with what the poisoned one drew and wrote
	// (the still-poisoned leftovers are dropped): nodes handed out fresh,
	// with no path to copy, rely on reclaim's clearing alone.
	*a = arena{}
	w.Release()
	if !arenaIsClean(a) {
		t.Fatal("second release parked a node that still references its old tree")
	}
	w.RecloneFrom(parent)
	far := ir.HeapShortLived.Base() + (5 << 30)
	if v, err := w.Read(far, 8); err != nil || v != 0 {
		t.Fatalf("never-touched address on a fresh branch reads %#x (%v), want 0", v, err)
	}
	if st := w.PageTable(); st.ResidentPages != want.ResidentPages+1 {
		t.Fatalf("child holds %d resident pages, want the parent's %d plus one", st.ResidentPages, want.ResidentPages)
	}
}
