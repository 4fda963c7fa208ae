package vm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"privateer/internal/ir"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page-protection mode.
type Prot uint8

const (
	// ProtNone forbids all access.
	ProtNone Prot = iota
	// ProtRead allows loads only.
	ProtRead
	// ProtReadWrite allows loads and stores.
	ProtReadWrite
)

// String renders the protection in ls -l style ("rw-", "r--", "---").
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtReadWrite:
		return "rw-"
	}
	return "???"
}

// Fault describes an invalid memory access.
type Fault struct {
	// Addr is the faulting virtual address.
	Addr uint64
	// Write distinguishes store faults from load faults.
	Write bool
	// Reason explains the fault.
	Reason string
}

// Error formats the fault as "<kind> fault at 0x<addr>: <reason>".
func (f *Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("memory fault: %s at %#x (%s heap): %s",
		kind, f.Addr, ir.HeapOf(f.Addr), f.Reason)
}

type page struct {
	data [PageSize]byte
}

type pageEntry struct {
	pg *page
	// cow marks the page as shared with another address space; the first
	// write duplicates it.
	cow bool
}

// level is one layer of allocator state: what a heapState recorded since
// its last freeze, or what a chain node sealed.
type level struct {
	// free holds the free-list entries added at this level, per rounded
	// size class (newest at the end, as the LIFO allocator appends them).
	free map[uint64][]uint64
	// used counts, per size class, how many entries this level consumed
	// from the END of the older levels' virtual free list.
	used map[uint64]int
	// objects holds allocations made at this level; dead tombstones objects
	// of OLDER levels freed at this level. Within one level objects wins
	// (a tombstoned address can be handed out again by a later Alloc).
	objects map[uint64]uint64
	dead    map[uint64]bool
	// churned records that objects lost an entry since its last clear, so
	// its table may hold tombstones (see clear).
	churned bool
}

// empty reports whether the level records nothing: no free entry,
// consumption, allocation or tombstone.
func (l *level) empty() bool {
	if len(l.used) != 0 || len(l.objects) != 0 || len(l.dead) != 0 {
		return false
	}
	for _, lst := range l.free {
		if len(lst) != 0 {
			return false
		}
	}
	return true
}

// clear empties the level in place: free lists are cut to length zero, so
// their arrays serve the next frees, and the maps keep their capacity.
// Go 1.24's clear returns at once on a map with no live entry, keeping the
// tombstones its deletes left in full groups, and a table whose free slots
// tombstones have used up doubles on its next insert. So an objects map
// that churned is cleared with one entry in it, which empties its table
// for real: alloc/free churn would otherwise grow it run after run.
func (l *level) clear() {
	for r, lst := range l.free {
		l.free[r] = lst[:0]
	}
	clear(l.used)
	if l.churned && len(l.objects) == 0 {
		l.objects[0] = 0
	}
	clear(l.objects)
	l.churned = false
	clear(l.dead)
}

// fold applies newer level n onto l, a flat level (one that consumed and
// tombstoned nothing): n's consumptions trim l's free lists, its frees
// stack on top, and its tombstones drop objects before its own allocations
// land.
func (l *level) fold(n *level) {
	if l.free == nil {
		l.free = map[uint64][]uint64{}
	}
	if l.objects == nil {
		l.objects = map[uint64]uint64{}
	}
	for r, k := range n.used {
		l.free[r] = l.free[r][:len(l.free[r])-k]
	}
	for r, lst := range n.free {
		l.free[r] = append(l.free[r], lst...)
	}
	for a := range n.dead {
		delete(l.objects, a)
		l.churned = true
	}
	for a, sz := range n.objects {
		l.objects[a] = sz
	}
}

// allocBase is an immutable, shareable snapshot of allocator state: one node
// of a copy-on-write overlay chain. A clone (or a freeze before a clone)
// seals the mutable delta level of a heapState into a new node, which both
// sides then read through without ever mutating — so post-clone allocator
// mutations cost O(1) in the number of live objects, not O(live) as a deep
// copy would. Only its owner changes a node, and only once no clone can
// read it (heapState.reclaim).
type allocBase struct {
	// parent is the next-older snapshot; nil terminates the chain.
	parent *allocBase
	// level is what the node sealed; its used counts consumption from the
	// parent chain's virtual free list.
	level
	// depth is the chain length at this node, bounded by maxChainDepth via
	// amortized flattening.
	depth int
	// owner is the state whose freeze sealed this node.
	owner *heapState
}

// maxChainDepth bounds overlay-chain walks; freezing past it flattens the
// state first (amortized across the mutations that grew the chain).
const maxChainDepth = 8

// entryFromEnd returns the (k+1)-th entry from the end of the chain's
// virtual free list for size class r, where the virtual list is the parent's
// list minus the entries this node had consumed, with this node's own frees
// stacked on top.
func (b *allocBase) entryFromEnd(r uint64, k int) (uint64, bool) {
	for b != nil {
		lst := b.free[r]
		if k < len(lst) {
			return lst[len(lst)-1-k], true
		}
		k += b.used[r] - len(lst)
		b = b.parent
	}
	return 0, false
}

// heapState is the allocator state of one logical heap: an optional
// immutable base chain plus a private delta level (its maps allocated
// lazily, so a fresh post-clone state is a few words).
type heapState struct {
	// brk is the bump pointer (next unallocated address).
	brk uint64
	// base is the shared immutable snapshot chain; nil for a flat state.
	base *allocBase
	// level is what this state recorded since its last freeze (private,
	// mutable): used counts consumption from base's virtual free list, dead
	// tombstones base objects.
	level
	// liveCount is the number of live allocations across base and deltas.
	liveCount int
}

func newHeapState(h ir.HeapKind) *heapState {
	return &heapState{brk: heapStart(h)}
}

// heapStart is where heap h's allocator begins: page 1+8*tag of its range.
// Page 0 stays unmapped so null-pointer dereferences fault, and the system
// heap keeps page 1. The offset is the heap's TLB color: every heap base has
// the same low page-number bits, which index the TLBs.
func heapStart(h ir.HeapKind) uint64 { return h.Base() + PageSize*(1+8*h.Tag()) }

// freeze seals this state's delta level into a new immutable chain node, so
// a clone may share it. O(1): the maps move into the node unchanged and the
// state continues with an empty level. A state with nothing new since the
// last freeze is reused as-is.
func (hs *heapState) freeze() {
	if hs.base != nil && hs.level.empty() {
		return
	}
	if hs.base != nil && hs.base.depth >= maxChainDepth {
		hs.flatten()
	}
	depth := 1
	if hs.base != nil {
		depth = hs.base.depth + 1
	}
	hs.base = &allocBase{parent: hs.base, level: hs.level, depth: depth, owner: hs}
	hs.level = level{}
}

// flatten collapses the overlay chain and the deltas into a fresh flat
// level, folding the levels oldest first.
func (hs *heapState) flatten() {
	var chain []*allocBase
	for b := hs.base; b != nil; b = b.parent {
		chain = append(chain, b)
	}
	var flat level
	for i := len(chain) - 1; i >= 0; i-- {
		flat.fold(&chain[i].level)
	}
	flat.fold(&hs.level)
	hs.base, hs.level = nil, flat
}

// reclaim folds the base chain and the deltas into the chain's oldest node
// in place, when the state froze every node of the chain and no clone can
// read it any more (the caller has checked the space's clone count). The
// node stays the state's base, one level deep, and the deltas are emptied
// with their capacity kept: a space that keeps handing its allocator to
// clones and taking it back allocates nothing for it, and the next share
// finds nothing to freeze. Into an empty node the deltas move whole, their
// maps swapped for the node's. A chain that reaches into another state's
// nodes is left alone.
func (hs *heapState) reclaim() {
	var chain [maxChainDepth]*allocBase
	n := 0
	for b := hs.base; b != nil; b = b.parent {
		if b.owner != hs {
			return
		}
		chain[n] = b
		n++
	}
	if n == 0 {
		return
	}
	// The oldest node has no parent, so it consumed and tombstoned nothing.
	flat := chain[n-1]
	for i := n - 2; i >= 0; i-- {
		flat.fold(&chain[i].level)
	}
	if flat.empty() {
		flat.level, hs.level = hs.level, flat.level
	} else {
		flat.fold(&hs.level)
	}
	hs.level.clear()
	flat.parent, flat.depth = nil, 1
	hs.base = flat
}

// clone duplicates the allocator state by freezing the delta maps into an
// immutable shared base: O(1) regardless of how many objects are live, and
// the first post-clone Alloc/Free is O(1) too, reading through the base
// instead of deep-copying it.
func (hs *heapState) clone() *heapState {
	hs.freeze()
	return &heapState{brk: hs.brk, base: hs.base,
		liveCount: hs.liveCount}
}

// recloneFrom makes hs a clone of src in place, reusing hs's private delta
// maps (cleared, capacity retained, free lists included) instead of
// allocating fresh ones — the allocator half of AddressSpace.RecloneFrom.
// Reuse is safe because freeze moves any map a clone could share into the
// immutable base chain: a map still referenced from a heapState has never
// been visible to another space.
func (hs *heapState) recloneFrom(src *heapState) {
	src.freeze()
	hs.brk = src.brk
	hs.base = src.base
	hs.level.clear()
	hs.liveCount = src.liveCount
}

// objectSize resolves addr through the delta maps and the base chain,
// returning its rounded size if live.
func (hs *heapState) objectSize(addr uint64) (uint64, bool) {
	if sz, ok := hs.objects[addr]; ok {
		return sz, true
	}
	if hs.dead[addr] {
		return 0, false
	}
	for b := hs.base; b != nil; b = b.parent {
		if sz, ok := b.objects[addr]; ok {
			return sz, true
		}
		if b.dead[addr] {
			return 0, false
		}
	}
	return 0, false
}

// Stats counts page-table events, exposed for the paper's overhead
// accounting (Figure 8) and for tests. Every counter moves only when a page
// or a radix node is instantiated, copied or skipped; an access that hits
// resident, privately owned memory writes none of them.
type Stats struct {
	// PagesMapped counts demand-zero page instantiations.
	PagesMapped int64
	// PagesCopied counts copy-on-write duplications.
	PagesCopied int64
	// NodesCopied counts radix page-table nodes path-copied on first
	// mutation under a shared subtree (range-COW splits).
	NodesCopied int64
	// SummaryHits counts subtrees skipped outright by dirty-summary-guided
	// walks (DirtyPages/DirtyHeapPages).
	SummaryHits int64
}

// Add adds o's counts into s.
func (s *Stats) Add(o Stats) {
	s.PagesMapped += o.PagesMapped
	s.PagesCopied += o.PagesCopied
	s.NodesCopied += o.NodesCopied
	s.SummaryHits += o.SummaryHits
}

// tlbEntry is one cached translation of the software TLB: page number to
// resolved page. A read entry proves the translation passed its protection
// check; a write entry additionally proves the page is privately owned
// (copy-on-write already resolved), so a hit may store directly.
type tlbEntry struct {
	pn uint64
	pg *page
}

// tlbSize is the number of direct-mapped TLB entries (a power of two).
const tlbSize = 64

// AddressSpace is one simulated process's view of memory: a multi-level
// radix page table plus per-heap allocator state and protections.
type AddressSpace struct {
	// root is the radix page table (see pagetable.go). Clones share
	// subtrees copy-on-write at range granularity: epoch identifies which
	// nodes this space owns, and every node it does not own is path-copied
	// before mutation. A node reachable from two or more spaces is never
	// mutated.
	root  *radixNode
	epoch uint64
	// arena recycles the nodes and pages this space owned exclusively when
	// it was last released or re-cloned (see pagetable.go).
	arena arena
	heaps [ir.NumHeaps]*heapState
	prot  [ir.NumHeaps]Prot

	// rtlb and wtlb are small direct-mapped software TLBs consulted before
	// the page map: rtlb caches protection-checked read translations, wtlb
	// caches write translations to privately owned pages. Both are flushed
	// on Clone, Reown and SetProt; COW resolution updates the affected entry
	// in place.
	rtlb [tlbSize]tlbEntry
	wtlb [tlbSize]tlbEntry

	// Stats accumulates this space's page-event counts. Only the owner
	// goroutine writes it; a clone counts from zero in its own, and whoever
	// wants a fleet's total adds the clones' counts up (see Stats.Add).
	Stats Stats

	// clones counts the live spaces that may reach this space's nodes: every
	// Clone or RecloneFrom taken from it, or from one of those, not yet
	// Released or recloned. owners lists the spaces whose count includes
	// this one. ownEpoch is the epoch this space owned before it first
	// shared its current tree, which Reown restores once clones is zero.
	clones   atomic.Int64
	owners   []*AddressSpace
	ownEpoch uint64
}

// addStat bumps one Stats counter of the space's own, unshared Stats.
// Every caller sits on a page-table event (a page or node instantiated,
// copied or skipped), never on a per-access path.
func addStat(p *int64) { *p++ }

// flushTLB drops every cached translation.
func (as *AddressSpace) flushTLB() {
	as.rtlb = [tlbSize]tlbEntry{}
	as.wtlb = [tlbSize]tlbEntry{}
}

// NewAddressSpace returns an empty address space with every heap mapped
// read-write and empty.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{epoch: nextEpoch()}
	as.root = as.newNode(false)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		as.heaps[h] = newHeapState(h)
		as.prot[h] = ProtReadWrite
	}
	return as
}

// Clone returns a copy-on-write duplicate of the address space, as fork
// would produce: both spaces share physical pages until either writes.
// Cloning is lazy at range granularity: parent and child share the radix
// table's subtrees, and both sides take fresh ownership epochs, which marks
// every existing node shared in O(1). The first mutation under a shared
// subtree path-copies only the nodes on the way down (marking the split
// leaf's pages copy-on-write), so spawning a read-mostly worker costs O(1),
// not O(mapped pages) or O(live allocations).
func (as *AddressSpace) Clone() *AddressSpace {
	as.reclaimAllocator()
	as.share()
	c := &AddressSpace{root: as.root, epoch: nextEpoch()}
	c.attach(as)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		c.heaps[h] = as.heaps[h].clone()
		c.prot[h] = as.prot[h]
	}
	return c
}

// RecloneFrom re-targets as to be a fresh copy-on-write clone of parent —
// semantically identical to parent.Clone(), Stats counting from zero
// included, except that no new AddressSpace, TLB arrays or heap-state slots
// are allocated: the receiver's existing structure (including the delta-map
// capacity its allocator grew on earlier runs) is reused in place. The
// region service's warmed worker pool spawns recycled workers this way,
// amortizing the per-spawn allocation churn across invocations. The
// receiver must not be aliased by any other execution (a pooled space
// between uses); any state it held, its counts included, is discarded.
func (as *AddressSpace) RecloneFrom(parent *AddressSpace) {
	as.reclaim(as.root)
	as.detach()
	parent.reclaimAllocator()
	parent.share()
	as.attach(parent)
	as.root = parent.root
	as.epoch = nextEpoch()
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		as.heaps[h].recloneFrom(parent.heaps[h])
		as.prot[h] = parent.prot[h]
	}
	as.Stats = Stats{}
	as.flushTLB()
}

// Release detaches as from whatever parent it was recloned from: the radix
// root is replaced by a fresh empty table and every heap returns to its
// empty post-construction state, so a pooled space does not pin a dead
// invocation's pages in memory while it waits for reuse. The structure
// itself (TLB arrays, heap-state slots, delta-map capacity) is retained for
// the next RecloneFrom; an allocator chain only this space froze and no
// clone reads is folded into one node and emptied in place, so its
// capacity is retained too. Release bumps no counter and leaves Stats as
// it was, so a parked space's counts stay readable until it is drawn
// again.
func (as *AddressSpace) Release() {
	as.reclaim(as.root)
	as.detach()
	own := as.reclaimAllocator()
	as.epoch = nextEpoch()
	as.root = as.newNode(false)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		hs := as.heaps[h]
		hs.brk = heapStart(h)
		if b := hs.base; own && b != nil && b.owner == hs && b.parent == nil {
			// An empty base reads as none.
			b.level.clear()
		} else {
			hs.base = nil
		}
		hs.level.clear()
		hs.liveCount = 0
		as.prot[h] = ProtReadWrite
	}
	as.flushTLB()
}

// Reown gives as back the tree it shared, once no clone can reach it: when
// every Clone and RecloneFrom taken from as, or from one of those, has been
// Released or recloned, it restores the epoch as owned before it first
// shared the tree, so later stores write as's pages in place instead of
// path-copying nodes and pages nobody else reads any more (and
// DirtyPages counts what as dirtied under that epoch again). It also gives
// as its allocator state back: each heap's chain of frozen free lists and
// object maps, which every clone read through, and the deltas written since
// fold into one node of as's own in place (reclaimAllocator), so what the
// chain grew serves as's next allocations and frees and the next clone
// shares it without a new freeze. It reports false, changing nothing, while
// any such clone is live.
func (as *AddressSpace) Reown() bool {
	if as.clones.Load() != 0 {
		return false
	}
	if as.ownEpoch != 0 {
		// A write entry must name a page under an owned leaf; the ones
		// cached since the last share sit under the epoch given up.
		as.epoch, as.ownEpoch = as.ownEpoch, 0
		as.flushTLB()
	}
	as.reclaimAllocator()
	return true
}

// reclaimAllocator folds each heap's allocator chain and deltas into one
// node of its own (heapState.reclaim) when no clone of as is live, and
// reports whether none was: a chain node as froze is then read by no other
// space. A chain shared with a live clone, or reaching into another space's
// nodes, stays as it is.
func (as *AddressSpace) reclaimAllocator() bool {
	if as.clones.Load() != 0 {
		return false
	}
	for _, hs := range as.heaps {
		hs.reclaim()
	}
	return true
}

// share hands as's tree to a new clone: every node as owns becomes shared
// by giving as a fresh epoch. The first share since as last owned its whole
// tree remembers the epoch for Reown.
func (as *AddressSpace) share() {
	if as.ownEpoch == 0 {
		as.ownEpoch = as.epoch
	}
	as.epoch = nextEpoch()
	as.flushTLB()
}

// attach counts as as a live clone of parent and of every space parent is a
// live clone of, since as now reaches all of their trees.
func (as *AddressSpace) attach(parent *AddressSpace) {
	as.owners = append(append(as.owners[:0], parent.owners...), parent)
	for _, o := range as.owners {
		o.clones.Add(1)
	}
}

// detach undoes attach once as has dropped the tree it shared, and forgets
// as's own saved epoch with that tree.
func (as *AddressSpace) detach() {
	for i, o := range as.owners {
		o.clones.Add(-1)
		as.owners[i] = nil
	}
	as.owners = as.owners[:0]
	as.ownEpoch = 0
}

// SetProt sets the protection of an entire logical heap, the granularity at
// which Privateer manipulates page maps.
func (as *AddressSpace) SetProt(h ir.HeapKind, p Prot) {
	as.prot[h] = p
	as.flushTLB()
}

// ProtOf returns the protection of heap h.
func (as *AddressSpace) ProtOf(h ir.HeapKind) Prot { return as.prot[h] }

// pageFor returns the page containing addr, instantiating a demand-zero page
// if needed; forWrite resolves copy-on-write. Callers must have passed
// checkProt for the whole range the access covers, not only its first byte:
// pageFor caches the translation in the TLB, and a TLB hit implies the
// protection check already succeeded.
func (as *AddressSpace) pageFor(addr uint64, forWrite bool) *page {
	key := addr >> PageShift
	if !forWrite {
		// Reads of already-mapped pages descend straight through shared
		// subtrees without copying anything.
		if e := as.peek(key); e != nil {
			as.rtlb[key&(tlbSize-1)] = tlbEntry{pn: key, pg: e.pg}
			return e.pg
		}
	}
	// Any mutation (instantiation or COW resolution) path-copies the shared
	// part of the branch first, then maintains the dirty summaries.
	var path [radixLevels]*radixNode
	leaf := as.ownPath(key, &path)
	slot := slotOf(key, radixLevels-1)
	e := &leaf.entries[slot]
	if e.pg == nil {
		e.pg = as.newPage(nil)
		addStat(&as.Stats.PagesMapped)
		as.markDirty(&path, slot)
	} else if forWrite && e.cow {
		e.pg = as.newPage(e.pg)
		e.cow = false
		addStat(&as.Stats.PagesCopied)
		as.markDirty(&path, slot)
	}
	idx := key & (tlbSize - 1)
	// COW resolution replaced the page this space reads at key, so the
	// read entry is refreshed alongside the write entry.
	as.rtlb[idx] = tlbEntry{pn: key, pg: e.pg}
	if forWrite {
		as.wtlb[idx] = tlbEntry{pn: key, pg: e.pg}
	}
	return e.pg
}

// checkProt checks that the size bytes from addr may be read, or written
// when write is set: every heap the range touches must allow it, the range
// must not reach into the null page of the system heap, and it must not wrap
// past 2^64. A zero-size range checks addr. The fault names the first byte
// that fails.
func (as *AddressSpace) checkProt(addr uint64, size uint64, write bool) error {
	last := addr
	if size > 0 {
		last = addr + size - 1
		if last < addr {
			return &Fault{Addr: addr, Write: write, Reason: "range wraps past 2^64"}
		}
	}
	// Heaps repeat every 2^47 bytes, so eight regions visit all of them.
	for a, i := addr, 0; i <= ir.TagMask; i++ {
		if p := as.prot[ir.HeapOf(a)]; p == ProtNone || (write && p != ProtReadWrite) {
			return &Fault{Addr: a, Write: write, Reason: "protection " + p.String()}
		}
		// Guard the unmapped null page of the system heap.
		if a < PageSize {
			return &Fault{Addr: a, Write: write, Reason: "null page"}
		}
		next := (a>>ir.TagShift + 1) << ir.TagShift
		if next == 0 || next > last {
			break
		}
		a = next
	}
	return nil
}

// piece returns the bytes of addr's page from addr on, at most n of them,
// through pageFor (which see).
func (as *AddressSpace) piece(addr, n uint64, forWrite bool) []byte {
	off := addr & (PageSize - 1)
	return as.pageFor(addr, forWrite).data[off:min(off+n, PageSize)]
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (as *AddressSpace) ReadBytes(addr uint64, dst []byte) error {
	if err := as.checkProt(addr, uint64(len(dst)), false); err != nil {
		return err
	}
	for len(dst) > 0 {
		k := copy(dst, as.piece(addr, uint64(len(dst)), false))
		dst, addr = dst[k:], addr+uint64(k)
	}
	return nil
}

// WriteBytes copies src into memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint64, src []byte) error {
	if err := as.checkProt(addr, uint64(len(src)), true); err != nil {
		return err
	}
	for len(src) > 0 {
		k := copy(as.piece(addr, uint64(len(src)), true), src)
		src, addr = src[k:], addr+uint64(k)
	}
	return nil
}

// Fill sets the n bytes from addr to b, one page at a time, once the whole
// range has passed the protection check: it holds no buffer of its own, so
// n sizes no host memory beyond the pages it writes.
func (as *AddressSpace) Fill(addr, n uint64, b byte) error {
	if err := as.checkProt(addr, n, true); err != nil {
		return err
	}
	for n > 0 {
		s := as.piece(addr, n, true)
		for i := range s {
			s[i] = b
		}
		addr, n = addr+uint64(len(s)), n-uint64(len(s))
	}
	return nil
}

// Copy copies the n bytes from src to dst as memmove does: where the ranges
// overlap, every source byte is read before it is overwritten. Both ranges
// pass the protection check before a byte moves; then the copy goes one
// page piece at a time, backwards when dst lies above an overlapping src,
// and holds no buffer of its own.
func (as *AddressSpace) Copy(dst, src, n uint64) error {
	if err := as.checkProt(src, n, false); err != nil {
		return err
	}
	if err := as.checkProt(dst, n, true); err != nil {
		return err
	}
	if dst <= src || dst-src >= n {
		// Forward: a piece writes below every source byte still unread.
		// copy moves up to the nearer of the two page ends.
		for n > 0 {
			k := uint64(copy(as.piece(dst, n, true), as.piece(src, n, false)))
			dst, src, n = dst+k, src+k, n-k
		}
		return nil
	}
	// Backward from the ends: a piece writes above every source byte still
	// unread.
	for n > 0 {
		k := min((src+n-1)&(PageSize-1)+1, (dst+n-1)&(PageSize-1)+1, n)
		n -= k
		copy(as.piece(dst+n, k, true), as.piece(src+n, k, false))
	}
	return nil
}

// loadLE reads a size-byte (1, 2, 4 or 8) little-endian word from b.
func loadLE(b []byte, size int64) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// storeLE writes the low size (1, 2, 4 or 8) bytes of val to b,
// little-endian.
func storeLE(b []byte, size int64, val uint64) {
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
}

// pow2Size reports whether size is a standard access width (1, 2, 4, 8).
func pow2Size(size int64) bool {
	return size > 0 && size <= 8 && size&(size-1) == 0
}

// Read loads size (1, 2, 4 or 8) bytes at addr as a little-endian,
// zero-extended word.
func (as *AddressSpace) Read(addr uint64, size int64) (uint64, error) {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize && pow2Size(size) {
		// Single-page aligned-width access: TLB hit skips the protection
		// check (proven at fill time) and the page-map lookup.
		pn := addr >> PageShift
		if e := &as.rtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
			return loadLE(e.pg.data[off:], size), nil
		}
		if err := as.checkProt(addr, uint64(size), false); err != nil {
			return 0, err
		}
		return loadLE(as.pageFor(addr, false).data[off:], size), nil
	}
	var buf [8]byte
	if err := as.ReadBytes(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]) & sizeMask(size), nil
}

// ReadHit8 is Read(addr, 8) when the read TLB holds addr's page and the
// word does not straddle it: the 8-byte little-endian word and true, with
// nothing counted, as Read's own hit. Otherwise it returns false and does
// nothing, and the caller goes through Read. It is small enough to inline
// into the interpreter's dispatch loop.
func (as *AddressSpace) ReadHit8(addr uint64) (uint64, bool) {
	off, pn := addr&(PageSize-1), addr>>PageShift
	e := &as.rtlb[pn&(tlbSize-1)]
	if e.pn != pn || e.pg == nil || off > PageSize-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.pg.data[off:]), true
}

// WriteHit8 is Write(addr, 8, val) when the write TLB holds addr's page and
// the word does not straddle it, and reports true. Otherwise it returns
// false and stores nothing, and the caller goes through Write.
func (as *AddressSpace) WriteHit8(addr, val uint64) bool {
	off, pn := addr&(PageSize-1), addr>>PageShift
	e := &as.wtlb[pn&(tlbSize-1)]
	if e.pn != pn || e.pg == nil || off > PageSize-8 {
		return false
	}
	binary.LittleEndian.PutUint64(e.pg.data[off:], val)
	return true
}

// Write stores the low size bytes of val at addr, little-endian.
func (as *AddressSpace) Write(addr uint64, size int64, val uint64) error {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize && pow2Size(size) {
		// A write-TLB hit proves the page is privately owned and the heap
		// writable, so the store lands directly.
		pn := addr >> PageShift
		if e := &as.wtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
			storeLE(e.pg.data[off:], size, val)
			return nil
		}
		if err := as.checkProt(addr, uint64(size), true); err != nil {
			return err
		}
		storeLE(as.pageFor(addr, true).data[off:], size, val)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	return as.WriteBytes(addr, buf[:size])
}

func sizeMask(size int64) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * size)) - 1
}

const allocAlign = 16

// Alloc carves size bytes out of logical heap h and returns the object's
// base address. Objects never span a heap boundary and inherit the heap's
// address tag.
func (as *AddressSpace) Alloc(h ir.HeapKind, size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	hs := as.heaps[h]
	rounded := (size + allocAlign - 1) &^ uint64(allocAlign-1)
	if rounded < size {
		return 0, fmt.Errorf("vm: allocation of %d bytes exceeds the %s heap", size, h)
	}
	var addr uint64
	if lst := hs.free[rounded]; len(lst) > 0 {
		// Most recently freed first (LIFO), private frees before base ones.
		addr = lst[len(lst)-1]
		hs.free[rounded] = lst[:len(lst)-1]
	} else if a, ok := hs.base.entryFromEnd(rounded, hs.used[rounded]); ok {
		addr = a
		if hs.used == nil {
			hs.used = map[uint64]int{}
		}
		hs.used[rounded]++
	} else {
		addr = hs.brk
		end := addr + rounded
		if end < addr || ir.HeapOf(end) != h {
			return 0, fmt.Errorf("vm: heap %s exhausted (16 TB) by an allocation of %d bytes", h, size)
		}
		hs.brk = end
	}
	if hs.objects == nil {
		hs.objects = map[uint64]uint64{}
	}
	hs.objects[addr] = rounded
	hs.liveCount++
	return addr, nil
}

// Free releases the object at addr, which must have been returned by Alloc
// on the same (or an ancestor) address space.
func (as *AddressSpace) Free(addr uint64) error {
	h := ir.HeapOf(addr)
	hs := as.heaps[h]
	rounded, live := hs.objectSize(addr)
	if !live {
		return fmt.Errorf("vm: free of non-allocated address %#x (%s heap)", addr, h)
	}
	if _, own := hs.objects[addr]; own {
		delete(hs.objects, addr)
		hs.churned = true
	} else {
		if hs.dead == nil {
			hs.dead = map[uint64]bool{}
		}
		hs.dead[addr] = true
	}
	hs.liveCount--
	if hs.free == nil {
		hs.free = map[uint64][]uint64{}
	}
	hs.free[rounded] = append(hs.free[rounded], addr)
	return nil
}

// LiveObjects returns the number of live allocations in heap h, used to
// validate short-lived object lifetimes at iteration boundaries.
func (as *AddressSpace) LiveObjects(h ir.HeapKind) int { return as.heaps[h].liveCount }

// Brk returns the bump pointer of heap h (its high-water mark).
func (as *AddressSpace) Brk(h ir.HeapKind) uint64 { return as.heaps[h].brk }

// DirtyPages calls visit for every page this address space owns privately —
// pages written since the last Clone (COW-resolved) or newly instantiated.
// The walk is summary-guided: shared or untouched subtrees are skipped
// without descending (O(touched pages), not O(resident footprint)). The
// data slice aliases live memory and must not be retained.
func (as *AddressSpace) DirtyPages(visit func(base uint64, data []byte)) {
	as.walkDirty(as.root, 0, func(base uint64, e *pageEntry) {
		visit(base, e.pg.data[:])
	})
}

// DirtyHeapPages is DirtyPages restricted to heap h: a summary-guided walk
// over the heap's root-slot range that skips shared and untouched subtrees
// outright. The data slice aliases live memory and must not be retained.
func (as *AddressSpace) DirtyHeapPages(h ir.HeapKind, visit func(base uint64, data []byte)) {
	if as.root.epoch != as.epoch || as.root.dirty == 0 {
		addStat(&as.Stats.SummaryHits)
		return
	}
	lo, hi := heapSlotRange(h)
	for s := lo; s < hi; s++ {
		if kid := as.root.kids[s]; kid != nil {
			as.walkDirty(kid, s, func(base uint64, e *pageEntry) {
				visit(base, e.pg.data[:])
			})
		}
	}
}

// WritablePage returns the full, privately owned page containing addr,
// instantiating it and resolving copy-on-write as a store would. The shadow
// layer uses it to batch whole-page metadata updates (span privacy marks,
// checkpoint resets) into one translation instead of one per byte. The
// slice aliases live memory and must not be retained across Clone/SetProt.
func (as *AddressSpace) WritablePage(addr uint64) ([]byte, error) {
	// A write-TLB hit proves the page is privately owned and writable.
	pn := addr >> PageShift
	if e := &as.wtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
		return e.pg.data[:], nil
	}
	if err := as.checkProt(addr, 1, true); err != nil {
		return nil, err
	}
	return as.pageFor(addr, true).data[:], nil
}

// PageData returns the contents of the page containing addr without
// instantiating it; ok is false for never-touched pages (all zero).
func (as *AddressSpace) PageData(addr uint64) ([]byte, bool) {
	e := as.peek(addr >> PageShift)
	if e == nil {
		return nil, false
	}
	return e.pg.data[:], true
}

// heapWalkAll visits every instantiated page entry of heap h, regardless of
// ownership or dirty state.
func (as *AddressSpace) heapWalkAll(h ir.HeapKind, visit func(base uint64, e *pageEntry)) {
	lo, hi := heapSlotRange(h)
	for s := lo; s < hi; s++ {
		if kid := as.root.kids[s]; kid != nil {
			kid.walkAll(s, visit)
		}
	}
}

// HeapPages calls visit for every instantiated page of heap h with the
// page's base address and contents. The contents slice aliases live memory
// and must not be retained.
func (as *AddressSpace) HeapPages(h ir.HeapKind, visit func(base uint64, data []byte)) {
	as.heapWalkAll(h, func(base uint64, e *pageEntry) {
		visit(base, e.pg.data[:])
	})
}
