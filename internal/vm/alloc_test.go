package vm

import (
	"math/rand"
	"slices"
	"testing"

	"privateer/internal/ir"
)

// allocSizes are the request sizes the allocator tests draw from: four
// size classes once rounded.
var allocSizes = [...]uint64{8, 16, 40, 100}

// allocScript replays one deterministic sequence of allocations and frees
// on a space and returns every address Alloc handed out, in order. Frees
// release the most recent allocation of the script first, then every third
// object, so both the LIFO head and older entries of each free list move.
func allocScript(t *testing.T, as *AddressSpace, h ir.HeapKind, n int) []uint64 {
	t.Helper()
	var got, live []uint64
	for i := 0; i < n; i++ {
		a, err := as.Alloc(h, allocSizes[i%len(allocSizes)])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
		live = append(live, a)
	}
	for i := len(live) - 1; i >= 0; i -= 3 {
		if err := as.Free(live[i]); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestReownedAllocatorMatchesNeverCloned: a space whose allocator state was
// frozen for clones — a Clone and a pooled RecloneFrom, each allocating and
// freeing on its own side, while the parent allocated and freed through the
// frozen chain — and which Reowns once both are released, hands out the
// same addresses in the same LIFO order as a space that was never cloned.
// A steady cycle of a pooled re-clone that allocates, frees and is
// released, a Reown and an Alloc/Free churn on the space then allocates
// nothing: Reown folded the chain back into the space's own maps, free
// lists and all, and the pooled space kept its free lists' arrays.
func TestReownedAllocatorMatchesNeverCloned(t *testing.T) {
	const h = ir.HeapUnrestricted
	ref, as := NewAddressSpace(), NewAddressSpace()
	pooled := NewAddressSpace()
	for round := 0; round < 3; round++ {
		want := allocScript(t, ref, h, 24)
		c := as.Clone()
		pooled.RecloneFrom(as)
		allocScript(t, c, h, 9)
		allocScript(t, pooled, h, 5)
		if got := allocScript(t, as, h, 24); !slices.Equal(got, want) {
			t.Fatalf("round %d, clones live: addresses %#x, never-cloned space gives %#x", round, got, want)
		}
		c.Release()
		pooled.Release()
		if !as.Reown() {
			t.Fatalf("round %d: Reown refused with every clone released", round)
		}
		want = allocScript(t, ref, h, 12)
		if got := allocScript(t, as, h, 12); !slices.Equal(got, want) {
			t.Fatalf("round %d, reowned: addresses %#x, never-cloned space gives %#x", round, got, want)
		}
		if as.LiveObjects(h) != ref.LiveObjects(h) || as.Brk(h) != ref.Brk(h) {
			t.Fatalf("round %d: %d live objects below %#x, never-cloned space has %d below %#x",
				round, as.LiveObjects(h), as.Brk(h), ref.LiveObjects(h), ref.Brk(h))
		}
	}
	if raceEnabled {
		return // the race detector's shadow allocations defeat AllocsPerRun
	}
	// One cycle is what a pooled worker's span does to its master: the
	// worker re-clones, allocates and frees on its side and is released,
	// the master reowns, then allocates and frees on its own.
	var addrs [len(allocSizes) * 2]uint64
	churn := func(s *AddressSpace) {
		for i := range addrs {
			a, err := s.Alloc(h, allocSizes[i%len(allocSizes)])
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = a
		}
		for i := len(addrs) - 1; i >= 0; i-- {
			if err := s.Free(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := func() {
		pooled.RecloneFrom(as)
		churn(pooled)
		pooled.Release()
		if !as.Reown() {
			t.Fatal("Reown refused with the pooled clone released")
		}
		churn(as)
	}
	cycle()
	first := addrs
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a steady respawn and Alloc/Free cycle on a reowned space allocates %.0f objects, want 0", allocs)
	}
	if addrs != first {
		t.Errorf("the steady cycle moved: %#x, first %#x", addrs, first)
	}
}

// allocModel is the allocator a space must behave as: per size class a
// LIFO free list, the live objects and the bump pointer of one heap.
type allocModel struct {
	free    map[uint64][]uint64
	objects map[uint64]uint64
	brk     uint64
}

func newAllocModel(h ir.HeapKind) *allocModel {
	return &allocModel{free: map[uint64][]uint64{}, objects: map[uint64]uint64{}, brk: heapStart(h)}
}

func (m *allocModel) clone() *allocModel {
	c := &allocModel{free: map[uint64][]uint64{}, objects: map[uint64]uint64{}, brk: m.brk}
	for r, lst := range m.free {
		c.free[r] = slices.Clone(lst)
	}
	for a, sz := range m.objects {
		c.objects[a] = sz
	}
	return c
}

func (m *allocModel) alloc(size uint64) uint64 {
	r := (size + allocAlign - 1) &^ uint64(allocAlign-1)
	var a uint64
	if lst := m.free[r]; len(lst) > 0 {
		a, m.free[r] = lst[len(lst)-1], lst[:len(lst)-1]
	} else {
		a, m.brk = m.brk, m.brk+r
	}
	m.objects[a] = r
	return a
}

func (m *allocModel) release(a uint64) {
	r := m.objects[a]
	delete(m.objects, a)
	m.free[r] = append(m.free[r], a)
}

// TestAllocatorDifferentialVsFlatModel drives random allocations, frees,
// clones, re-clones, releases and reowns through a family of
// spaces and a flat allocator model in lockstep. Every Alloc must return the model's
// address and every space must agree with its model on live objects and
// their sizes, so a chain fold that loses, duplicates or reorders a free
// entry, resurrects a freed object, or mutates a node a live clone still
// reads shows up as a divergence.
func TestAllocatorDifferentialVsFlatModel(t *testing.T) {
	const h = ir.HeapPrivate
	rng := rand.New(rand.NewSource(11))
	type pair struct {
		as *AddressSpace
		m  *allocModel
	}
	spaces := []pair{{NewAddressSpace(), newAllocModel(h)}}
	reowned := 0
	check := func(step int) {
		for i, p := range spaces {
			if got, want := p.as.LiveObjects(h), len(p.m.objects); got != want {
				t.Fatalf("step %d: space %d has %d live objects, model %d", step, i, got, want)
			}
			for a, sz := range p.m.objects {
				if got := liveSize(p.as, a); got != sz {
					t.Fatalf("step %d: space %d: object %#x is %d bytes, model %d", step, i, a, got, sz)
				}
			}
		}
	}
	for step := 0; step < 20000; step++ {
		if step%2000 == 1999 {
			check(step)
		}
		p := spaces[rng.Intn(len(spaces))]
		switch op := rng.Intn(100); {
		case op < 45: // alloc
			size := allocSizes[rng.Intn(len(allocSizes))]
			got, err := p.as.Alloc(h, size)
			if err != nil {
				t.Fatal(err)
			}
			if want := p.m.alloc(size); got != want {
				t.Fatalf("step %d: Alloc(%d) = %#x, model says %#x", step, size, got, want)
			}
		case op < 85: // free a random live object
			if len(p.m.objects) == 0 {
				continue
			}
			live := make([]uint64, 0, len(p.m.objects))
			for a := range p.m.objects {
				live = append(live, a)
			}
			slices.Sort(live)
			a := live[rng.Intn(len(live))]
			if err := p.as.Free(a); err != nil {
				t.Fatalf("step %d: Free(%#x): %v", step, a, err)
			}
			p.m.release(a)
		case op < 89 && len(spaces) < 10: // clone
			spaces = append(spaces, pair{p.as.Clone(), p.m.clone()})
		case op < 92: // re-clone in place from another space of the family
			from := spaces[rng.Intn(len(spaces))]
			if from.as == p.as {
				continue
			}
			p.as.RecloneFrom(from.as)
			*p.m = *from.m.clone()
		case op < 94: // release
			p.as.Release()
			*p.m = *newAllocModel(h)
		default: // take the allocator back if no clone can reach it
			if p.as.Reown() {
				reowned++
			}
		}
	}
	if reowned == 0 {
		t.Fatal("no space ever reowned: the fold went unexercised")
	}
	check(20000)
}

// TestChurnedObjectsMapKeepsItsTable: a space that allocates a few hundred
// objects at addresses that shift from round to round, frees every one and
// is released, round after round, reaches the Go allocator not at all once
// warm. Go 1.24's clear skips a map with no live entry, so the objects map
// once kept the tombstones of each round's frees until its table doubled:
// the ~18 KB steps in the per-run readings of warm dijkstra/ref recovery
// runs (41 KB against a 4.2 KB median over 40 runs). Each space hashes
// with its own seed, and one in ten or so never fills its table within
// the rounds, so five spaces run.
func TestChurnedObjectsMapKeepsItsTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations defeat AllocsPerRun")
	}
	const h = ir.HeapUnrestricted
	var addrs [360]uint64
	var pad [61]uint64
	for space := range 5 {
		as := NewAddressSpace()
		alloc := func() uint64 {
			a, err := as.Alloc(h, 16)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		round := 0
		cycle := func() {
			// 60 - round%61 objects made first shift every later address;
			// the first round makes the most objects, so it sizes the maps
			// and free lists for every later one.
			pads := pad[:len(pad)-1-round%len(pad)]
			round++
			for i := range pads {
				pads[i] = alloc()
			}
			for i := range addrs {
				addrs[i] = alloc()
			}
			for _, live := range [][]uint64{addrs[:], pads} {
				for _, a := range live {
					if err := as.Free(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			as.Release()
		}
		cycle()
		// One round at a time: AllocsPerRun rounds its average down, and
		// a table that tombstones filled doubles once, then sits half
		// empty.
		grew := 0
		for range 200 {
			if testing.AllocsPerRun(1, cycle) != 0 {
				grew++
			}
		}
		if grew != 0 {
			t.Errorf("space %d: %d of 200 warm rounds of alloc/free churn allocated, want none", space, grew)
		}
	}
}
