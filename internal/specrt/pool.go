package specrt

import (
	"sync"
	"sync/atomic"

	"privateer/internal/interp"
	"privateer/internal/vm"
)

// DefaultPoolSlots is the per-program warmed-slot cap a WorkerPool uses
// when constructed with a non-positive capacity: enough to keep a full
// default worker fleet warm across back-to-back invocations without
// letting an idle program pin unbounded memory.
const DefaultPoolSlots = 32

// warmSlot is one pooled process's machinery: a released address space
// (structure, map capacity and its arena of recycled nodes and pages
// retained, contents dropped) and a recycled interpreter over the shared
// decoded program (frame slabs retained; hooks, Speculator, output, check
// counters and layout dropped, checks back on).
// A worker draws one and RecloneFrom re-targets the space at its master; a
// run's master draws one and lays its globals out on the empty space.
type warmSlot struct {
	as *vm.AddressSpace
	it *interp.Interp
}

// WorkerPool recycles warmed worker machinery across spans and region
// invocations; a run's master draws its slot from the same pool and parks
// it when the run ends. Spawning a worker cold allocates an address-space
// clone and an interpreter per spawn; a warmed spawn re-clones a pooled
// space in place, reusing its TLB arrays, heap-state slots, the delta-map capacity
// its allocator grew on earlier runs and, through the space's arena, the
// radix nodes and pages it wrote last time: a respawn that touches no more
// than the previous one allocates nothing in vm. The pool also owns the
// free list of checkpoint buffers (bufFree). Slots are keyed by decoded
// Program so an interpreter is only ever recycled onto the module it was
// built for. All methods are safe for concurrent use; the region service
// shares one pool per compiled program across every tenant running it.
type WorkerPool struct {
	mu    sync.Mutex
	slots map[*interp.Program][]*warmSlot
	// perProgram caps retained slots per decoded program.
	perProgram int

	reuses   atomic.Int64
	misses   atomic.Int64
	returned atomic.Int64
	dropped  atomic.Int64

	// bufs recycles the checkpoint buffers of every span run over this pool.
	bufs bufFree
}

// bufFreeCap bounds the bytes a bufFree parks, cpFreeCap the checkpoint
// objects.
const (
	bufFreeCap = 1 << 20
	cpFreeCap  = 512
)

// bufFree is a bounded free list of byte buffers by exact length — the
// merged data and shadow pages and the reduction and proven-range snapshots
// a span's checkpoints own — and of the checkpoint objects themselves. Those
// are dead once invoke has installed and committed the span's valid prefix
// (spanState.recycle), and the next span merges the same objects into
// buffers of the same sizes, so they go back here rather than to the
// collector. Owned by the WorkerPool when one is configured (reuse across
// invocations and tenants), by the RT otherwise (reuse across the spans of
// one run); a nil *bufFree allocates and drops.
type bufFree struct {
	mu   sync.Mutex
	free map[int][][]byte
	held int
	cps  []*checkpoint
}

// checkpoint returns a checkpoint for interval id, [base, limit), after
// prev, drawing its buffers from f: a parked one when f has one.
func (f *bufFree) checkpoint(id, base, limit int64, prev *checkpoint) *checkpoint {
	var cp *checkpoint
	if f != nil {
		f.mu.Lock()
		if n := len(f.cps); n > 0 {
			cp, f.cps = f.cps[n-1], f.cps[:n-1]
		}
		f.mu.Unlock()
	}
	if cp == nil {
		cp = &checkpoint{data: map[uint64][]byte{}, shadow: map[uint64][]byte{},
			proven: map[uint64][]byte{}, carried: map[uint64][]byte{}}
	}
	cp.id, cp.base, cp.limit, cp.prev, cp.bufs = id, base, limit, prev, f
	if prev != nil {
		prev.next = cp
	}
	return cp
}

// get returns a buffer of n bytes, zeroed when zero is set (a caller that
// overwrites it whole passes false).
func (f *bufFree) get(n int, zero bool) []byte {
	if f != nil {
		f.mu.Lock()
		if lst := f.free[n]; len(lst) > 0 {
			b := lst[len(lst)-1]
			lst[len(lst)-1] = nil
			f.free[n] = lst[:len(lst)-1]
			f.held -= n
			f.mu.Unlock()
			if zero {
				clear(b)
			}
			return b
		}
		f.mu.Unlock()
	}
	return make([]byte, n)
}

// put parks b for the next get of its length; past bufFreeCap it is dropped.
func (f *bufFree) put(b []byte) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.held+len(b) <= bufFreeCap {
		if f.free == nil {
			f.free = map[int][][]byte{}
		}
		f.free[len(b)] = append(f.free[len(b)], b)
		f.held += len(b)
	}
	f.mu.Unlock()
}

// NewWorkerPool returns an empty pool retaining at most perProgram warmed
// slots per decoded program (<= 0 selects DefaultPoolSlots).
func NewWorkerPool(perProgram int) *WorkerPool {
	if perProgram <= 0 {
		perProgram = DefaultPoolSlots
	}
	return &WorkerPool{slots: map[*interp.Program][]*warmSlot{}, perProgram: perProgram}
}

// get pops a warmed slot for prog, or nil when the pool has none (the
// caller then spawns cold).
func (p *WorkerPool) get(prog *interp.Program) *warmSlot {
	p.mu.Lock()
	lst := p.slots[prog]
	if n := len(lst); n > 0 {
		s := lst[n-1]
		lst[n-1] = nil
		p.slots[prog] = lst[:n-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		return s
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return nil
}

// put releases a slot's address space and recycles its interpreter
// (dropping every page, allocator reference, hook and Speculator of the run
// that used it, so a parked slot pins neither that run's memory nor the run
// itself)
// and parks it for the next get; slots beyond the per-program cap are
// discarded.
func (p *WorkerPool) put(prog *interp.Program, s *warmSlot) {
	s.as.Release()
	s.it.Recycle(s.as)
	p.mu.Lock()
	if len(p.slots[prog]) < p.perProgram {
		p.slots[prog] = append(p.slots[prog], s)
		p.mu.Unlock()
		p.returned.Add(1)
		return
	}
	p.mu.Unlock()
	p.dropped.Add(1)
}

// WorkerPoolStats is a point-in-time snapshot of a pool's traffic.
type WorkerPoolStats struct {
	// Reuses counts gets satisfied from a warmed slot.
	Reuses int64 `json:"reuses"`
	// Misses counts gets that fell through to a cold spawn.
	Misses int64 `json:"misses"`
	// Returned counts slots parked back into the pool.
	Returned int64 `json:"returned"`
	// Dropped counts slots discarded at the per-program cap.
	Dropped int64 `json:"dropped"`
	// Retained is the number of slots currently parked across all
	// programs.
	Retained int64 `json:"retained"`
}

// Snapshot returns the pool's current traffic counters.
func (p *WorkerPool) Snapshot() WorkerPoolStats {
	st := WorkerPoolStats{
		Reuses:   p.reuses.Load(),
		Misses:   p.misses.Load(),
		Returned: p.returned.Load(),
		Dropped:  p.dropped.Load(),
	}
	p.mu.Lock()
	for _, lst := range p.slots {
		st.Retained += int64(len(lst))
	}
	p.mu.Unlock()
	return st
}
