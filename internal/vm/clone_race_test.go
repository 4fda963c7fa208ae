package vm

import (
	"sync"
	"testing"

	"privateer/internal/ir"
)

// TestConcurrentCloneIsolation pins the lazy-clone invariant concurrent
// workers depend on (see the package comment): a parent address space
// and clones taken from it may be written concurrently, each by its own
// owner goroutine, without data races — shared page-table maps are never
// mutated, so every write materializes private structure first. Run under
// -race this is the safety proof; the value checks assert full isolation
// in both directions. The fleet goes through several put/get cycles of a
// worker pool (Release, then RecloneFrom the same parent), so from the
// second cycle on every node and page a child writes is one its arena
// recycled: a recycled object another space could still reach would race
// with that space's owner here. Between cycles the parent reowns its tree
// and stores in place, as the speculative runtime's master does between
// spans: a page it wrote in place that a child could still reach would
// race here too.
func TestConcurrentCloneIsolation(t *testing.T) {
	const (
		workers = 4
		pages   = 64
		rounds  = 20
		cycles  = 4
	)
	base := ir.HeapPrivate.Base()
	parent := NewAddressSpace()
	for p := uint64(0); p < pages; p++ {
		if err := parent.Write(base+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	children := make([]*AddressSpace, workers)
	for w := range children {
		children[w] = parent.Clone()
	}
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle > 0 {
			for _, c := range children {
				c.Release()
			}
			// With the fleet parked the parent owns its tree again and
			// stores in place; the next fleet must see those stores.
			if !parent.Reown() {
				t.Fatalf("cycle %d: Reown refused with every child released", cycle)
			}
			for p := uint64(0); p < pages; p++ {
				if err := parent.Write(base+p*PageSize, 8, 2_000_000+p); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range children {
				c.RecloneFrom(parent)
				if v, _ := c.Read(base+PageSize, 8); v != 2_000_001 {
					t.Fatalf("cycle %d: reclone reads %d, want the reowned parent's 2000001", cycle, v)
				}
			}
		}
		runCloneFleet(t, parent, children, base, pages, rounds)
	}
}

// runCloneFleet writes parent and every child concurrently, each from its
// own goroutine, and checks nobody saw anybody else's stores.
func runCloneFleet(t *testing.T, parent *AddressSpace, children []*AddressSpace, base, pages uint64, rounds int) {
	workers := len(children)
	var wg sync.WaitGroup
	// The parent's owner writes into it while the children execute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for p := uint64(0); p < pages; p++ {
				if err := parent.Write(base+p*PageSize, 8, 1_000_000+uint64(r)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// The "workers": each writes its own pattern into its own clone.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := uint64(10_000 * (w + 1))
			for r := 0; r < rounds; r++ {
				for p := uint64(0); p < pages; p++ {
					addr := base + p*PageSize
					if err := children[w].Write(addr, 8, mine+uint64(r)); err != nil {
						t.Error(err)
						return
					}
					v, err := children[w].Read(addr, 8)
					if err != nil {
						t.Error(err)
						return
					}
					if v != mine+uint64(r) {
						t.Errorf("worker %d saw %d at page %d, want %d (isolation broken)",
							w, v, p, mine+uint64(r))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Parent sees only its own final installs.
	for p := uint64(0); p < pages; p++ {
		v, err := parent.Read(base+p*PageSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1_000_000+uint64(rounds-1) {
			t.Errorf("parent page %d holds %d, want %d", p, v, 1_000_000+uint64(rounds-1))
		}
	}
}
