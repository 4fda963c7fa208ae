// Package profiling implements Privateer's profilers (section 4.1 of the
// paper): the pointer-to-object profiler that connects dynamic pointer
// addresses to memory-object names via an interval map, the object-lifetime
// profiler that identifies short-lived objects, the memory flow-dependence
// profiler that finds loop-carried flow dependences, the value-prediction
// profiler, and the execution-time profiler that ranks hot loops.
//
// All profilers attach to a single instrumented interpretation of the
// program on a training input and produce one Profile consumed by the
// classification and transformation stages. Their per-event work is O(1),
// touches no map once warm and allocates nothing: NewProfiler numbers the
// module's objects (globals and allocation sites), memory instructions and
// blocks, each memory instruction memoizes the object, shadow page,
// dependence and carried-read record it last used, and the object sets are
// bitsets over the object numbers until Profile folds them into the exported
// maps. The flow-dependence shadow packs each byte's last in-loop write, a
// logical clock above the writing store's number, into one word.
package profiling

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"privateer/internal/interp"
	"privateer/internal/intervalmap"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// Object names a memory object by its static allocation site: a module
// global, or a malloc/alloca instruction. This is the unit at which heap
// assignments are expressed and allocation sites are rewritten: every object
// a site creates, on whatever call path, is one Object, since one static site
// can only be rewritten one way.
type Object struct {
	// Global is set for module globals.
	Global *ir.Global
	// Site is set for dynamic allocation sites (malloc/alloca).
	Site *ir.Instr
}

// IsZero reports whether o names nothing.
func (o Object) IsZero() bool { return o.Global == nil && o.Site == nil }

func (o Object) String() string {
	switch {
	case o.Global != nil:
		return "@" + o.Global.Name
	case o.Site != nil:
		name := o.Site.Name
		if name == "" {
			name = o.Site.String()
		}
		return o.Site.Blk.Fn.Name + ":" + name
	default:
		return "<none>"
	}
}

// ObjectSet is a set of memory objects.
type ObjectSet map[Object]bool

// Add inserts o and reports whether it was new.
func (s ObjectSet) Add(o Object) bool {
	if s[o] {
		return false
	}
	s[o] = true
	return true
}

// Union adds every element of t to s.
func (s ObjectSet) Union(t ObjectSet) {
	for o := range t {
		s[o] = true
	}
}

// Names returns the sorted object names, for deterministic reports.
func (s ObjectSet) Names() []string {
	var ns []string
	for o := range s {
		ns = append(ns, o.String())
	}
	sort.Strings(ns)
	return ns
}

// Dep is one observed loop-carried memory flow dependence: Dst read a value
// that Src wrote in an earlier iteration of the profiled loop.
type Dep struct {
	// Src is the store instruction.
	Src *ir.Instr
	// Dst is the load instruction.
	Dst *ir.Instr
	// Object is the memory object carrying the dependence.
	Object Object
	// Count is how many times the dependence manifested.
	Count int64
}

// ConstInfo summarizes the value-prediction profile of one load.
type ConstInfo struct {
	// Value is the first loaded value.
	Value uint64
	// Stable is true while every observed load returned Value.
	Stable bool
	// Count is the number of observed executions.
	Count int64
}

// CarriedReadInfo profiles the *carried* occurrences of a load: executions
// that returned a value written in an earlier iteration. When every carried
// occurrence reads the same value from the same fixed location, the
// dependence can be removed by value-prediction speculation (the paper's
// "linked list is empty at the beginning of each iteration").
type CarriedReadInfo struct {
	// Addr is the address of the first carried occurrence.
	Addr uint64
	// Value is the value of the first carried occurrence.
	Value uint64
	// Size is the access width.
	Size int64
	// Object is the memory object holding the location.
	Object Object
	// Offset is Addr's offset within Object.
	Offset uint64
	// Stable is true while every carried occurrence matches Addr/Value.
	Stable bool
	// Count is the number of carried occurrences.
	Count int64
}

// LoopInfo aggregates per-loop execution statistics.
type LoopInfo struct {
	// Loop is the profiled loop.
	Loop *ir.Loop
	// Invocations counts entries into the loop from outside.
	Invocations int64
	// Iterations counts total header trips across invocations.
	Iterations int64
	// Steps counts the interpreter's steps spent inside the loop,
	// including callees (the execution-time profile).
	Steps int64
}

// Profile is the combined result of one profiling run. Equal object sets
// in PointsTo, ShortLivedViolations and AllocatedIn may be one shared map,
// and an empty one may be nil: treat every set as read-only.
type Profile struct {
	// Mod is the profiled module.
	Mod *ir.Module
	// Loops maps each detected loop to its statistics.
	Loops map[*ir.Loop]*LoopInfo
	// AllLoops lists loops of every function, for iteration.
	AllLoops []*ir.Loop
	// PointsTo maps each memory-touching instruction to every object its
	// address operand referenced during profiling (the pointer-to-object
	// profile).
	PointsTo map[*ir.Instr]ObjectSet
	// CarriedFlow lists observed loop-carried memory flow dependences per
	// loop.
	CarriedFlow map[*ir.Loop][]*Dep
	// ShortLivedViolations records, per loop, allocation sites whose
	// objects were seen to outlive a single iteration (or be accessed
	// without having been allocated in the current iteration).
	ShortLivedViolations map[*ir.Loop]ObjectSet
	// AllocatedIn records, per loop, sites that allocated at least one
	// object during some iteration of the loop.
	AllocatedIn map[*ir.Loop]ObjectSet
	// LoadConst is the value-prediction profile of every load executed
	// inside at least one loop.
	LoadConst map[*ir.Instr]*ConstInfo
	// CarriedReads profiles the carried occurrences of loads, per loop.
	CarriedReads map[*ir.Loop]map[*ir.Instr]*CarriedReadInfo
	// BlockRuns counts executions of every basic block, for control
	// speculation: blocks never executed during training are speculated
	// unreachable and guarded with misspec at transform time.
	BlockRuns map[*ir.Block]int64
	// Steps is the whole-program dynamic instruction count.
	Steps int64
}

// IsShortLived implements Profile.isShortLived(o, L) from Algorithm 1: true
// if o allocated inside L, never outlived an iteration, and was never
// accessed outside the iteration that allocated it.
func (p *Profile) IsShortLived(o Object, l *ir.Loop) bool {
	return p.AllocatedIn[l][o] && !p.ShortLivedViolations[l][o]
}

// MapPointerToObjects implements Profile.mapPointerToObjects(p) from
// Algorithm 2 for the address operand of instruction in.
func (p *Profile) MapPointerToObjects(in *ir.Instr) ObjectSet {
	return p.PointsTo[in]
}

// HotLoops returns loops sorted by descending execution-time share,
// filtering out loops that never iterated.
func (p *Profile) HotLoops() []*LoopInfo {
	var infos []*LoopInfo
	for _, l := range p.AllLoops {
		if li := p.Loops[l]; li != nil && li.Iterations > 0 {
			infos = append(infos, li)
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Steps != infos[j].Steps {
			return infos[i].Steps > infos[j].Steps
		}
		return infos[i].Loop.String() < infos[j].Loop.String()
	})
	return infos
}

// The profiler works on dense indices fixed by NewProfiler: every global and
// allocation site is an object index (0 names nothing), every instruction
// that reaches a memory hook an entry of Profiler.ops, and every block an
// entry of its function's fnTab. The hooks keep index sets and memos in
// those entries and allocate nothing once warm; Profile folds them into the
// exported maps.
//
// The flow-dependence profiler keeps one logical clock and one shadow of
// program memory. The clock ticks when a loop activation starts and at each
// of its iteration boundaries; the shadow holds, per byte, the clock reading
// and the store of the last write made inside any loop. An activation has
// been on the stack since startT without a break, so a last write at or
// after startT is that activation's own last write, and it belongs to an
// earlier iteration iff it precedes iterT: a read is carried by an activation
// iff startT <= t < iterT. Nested activations have disjoint, increasing
// windows, so a byte is carried by at most one of them, a store costs one
// shadow write per byte whatever the nesting depth, and re-entering an inner
// loop allocates and clears nothing. The same clock dates allocations: an
// object was allocated in an activation's current iteration iff its born
// reading is at least the activation's iterT.

const shadowPageSize = 1 << 9

// shadowPage holds a byte's last in-loop write as one word: the clock
// reading shifted left by Profiler.srcBits, or'ed with the writing store's
// index in Profiler.ops. While every store into the page has written whole
// aligned 8-byte words, words holds one per 8 bytes; the first other store
// expands the page into bytes, one per byte. A run of bytes sharing a last
// write is a run of equal words either way.
type shadowPage struct {
	words [shadowPageSize / 8]uint64
	bytes *[shadowPageSize]uint64
}

// expand switches pg to one word per byte.
func (pg *shadowPage) expand() {
	pg.bytes = new([shadowPageSize]uint64)
	for i := range pg.bytes {
		pg.bytes[i] = pg.words[i/8]
	}
}

// unwritten stands in, for reads, for every page no in-loop store has
// touched. Nothing writes to it.
var unwritten shadowPage

// span is what the interval map holds for a live object: its index, its
// slot in Profiler.gens, and the clock reading when it was allocated (0 for
// a global).
type span struct {
	obj, id uint32
	born    uint64
}

// liveAlloc is an allocation made in an activation's current iteration. It
// is still live iff the interval map still holds span at addr.
type liveAlloc struct {
	addr uint64
	span
}

// objSet is a set of object indices, one bit each.
type objSet []uint64

func (s objSet) has(o uint32) bool { return s[o/64]&(1<<(o%64)) != 0 }
func (s objSet) add(o uint32)      { s[o/64] |= 1 << (o % 64) }

// loopRec is the profiler's record of one static loop.
type loopRec struct {
	info                  LoopInfo
	allocated, violations objSet
	// deps is keyed by the store's index in Profiler.ops << 32 | the load's.
	deps  map[uint64]*depRec
	reads map[*ir.Instr]*CarriedReadInfo
	// body[b.Index] is Loop.Contains(b) without the map lookup.
	body []bool
}

// depRec is a Dep with its object's index, which orders CarriedFlow.
type depRec struct {
	Dep
	obj uint32
}

// loopInst is one dynamic activation of a loop.
type loopInst struct {
	*loopRec
	depth         int
	startT, iterT uint64
	// steps0 is the interpreter's Steps when the activation began.
	steps0 int64
	// seenLoad is the Profiler.loads of the last load this activation
	// carried, so a load straddling two writes is one carried read.
	seenLoad int64
	// live lists the allocations of the current iteration, freed or not;
	// the slice is reused by the next activation at this stack slot.
	live []liveAlloc
}

// opRec is the side-table entry of one memory instruction: a load, store,
// allocation, free, memset or memcopy. The fields a load or store reads on
// every execution come first.
type opRec struct {
	// [lo, lo+n) is the object s that in's last access hit, while
	// Profiler.gens[s.id] = objGen.
	lo, n  uint64
	s      span
	objGen uint32
	// page is shadow page pn, as of Profiler.made = gen.
	pn   uint64
	page *shadowPage
	gen  uint32
	// dep is the dependence the load last manifested, in depLoop from
	// depSrc: an 8-byte carried read is one lookup, not eight.
	depSrc  uint32
	depLoop *loopRec
	dep     *depRec
	// konst is LoadConst[in] once Count > 0.
	konst ConstInfo
	// cr is CarriedReads[crLoop.Loop][in].
	crLoop *loopRec
	cr     *CarriedReadInfo
	// hint is the interval-map slot of the last lookup's hit.
	hint int
	in   *ir.Instr
	// idx is the entry's index in Profiler.ops; site is the object index
	// of an allocation instruction.
	idx, site uint32
	// objs is the offset in Profiler.sets of the index set behind
	// PointsTo[in].
	objs int
}

type blockRec struct {
	runs int64
	// header is the loop blk heads, if any; inner is the innermost loop
	// containing blk.
	header, inner *loopRec
	blk           *ir.Block
}

// fnTab is one function's part of the dense tables: ops[v] is the entry in
// Profiler.ops of the memory instruction with ValueID v; blocks is indexed
// by Block.Index.
type fnTab struct {
	ops    []*opRec
	blocks []blockRec
}

// Profiler instruments an interpreter and accumulates a Profile.
type Profiler struct {
	mod *ir.Module
	// loops lists every loop's record in Profile.AllLoops order.
	loops []*loopRec

	// frames[d] is the table of the function executing at call depth d, fn
	// the innermost one's: every memory and block hook fires in it. lastFn
	// is a one-entry memo in front of tabs.
	tabs   map[*ir.Function]fnTab
	lastFn *ir.Function
	last   fnTab
	frames []fnTab
	fn     fnTab
	ops    []opRec

	// objs[o] is the object of index o: nothing, the globals in declaration
	// order, then the allocation sites. words is the length of an objSet;
	// sets holds the points-to sets, one per entry of ops.
	objs  []Object
	words int
	sets  []uint64
	// inLoop holds the sites that have allocated inside a loop: no other
	// object can be short-lived in one.
	inLoop objSet

	// gens[id] counts the removals of the objects that held slot id, which
	// invalidates the memos of the last one; ids lists the free slots. An
	// insert leaves every memo valid: the allocator hands out memory no live
	// object occupies.
	objects intervalmap.Map[span]
	gens    []uint32
	ids     []uint32
	stack   []loopInst
	clock   uint64
	// srcBits is the width of an index into ops in a shadow word;
	// maxClock, the largest clock reading that fits above it.
	srcBits  uint
	maxClock uint64
	// it is the profiled interpreter: an activation's Steps is the growth
	// of it.Steps while it was on the stack.
	it    *interp.Interp
	loads int64

	// made counts the pages in pages.
	pages map[uint64]*shadowPage
	made  uint32
}

// NewProfiler prepares a profiler for mod, computing loop structure for
// every function and numbering its objects, instructions and blocks.
func NewProfiler(mod *ir.Module) *Profiler {
	p := &Profiler{
		mod:   mod,
		tabs:  map[*ir.Function]fnTab{},
		pages: map[uint64]*shadowPage{},
	}
	funcs, nOps, nSites := mod.SortedFuncs(), 0, 0
	for _, f := range funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAlloca, ir.OpMalloc, ir.OpHAlloc:
					nSites++
				}
				if isMemOp(in.Op) {
					nOps++
				}
			}
		}
	}
	p.ops = make([]opRec, 0, nOps)
	p.objs = make([]Object, 1, 1+len(mod.GlobalNames())+nSites)
	p.words = (cap(p.objs) + 63) / 64
	p.sets = make([]uint64, nOps*p.words)
	for _, name := range mod.GlobalNames() {
		p.objs = append(p.objs, Object{Global: mod.Globals[name]})
	}
	for _, f := range funcs {
		f.Recompute()
		tab := fnTab{make([]*opRec, f.NumValues()), make([]blockRec, len(f.Blocks))}
		p.tabs[f] = tab
		for _, b := range f.Blocks {
			tab.blocks[b.Index] = blockRec{blk: b}
			for _, in := range b.Instrs {
				if !isMemOp(in.Op) {
					continue
				}
				rec := opRec{in: in, pn: ^uint64(0), idx: uint32(len(p.ops)), objs: len(p.ops) * p.words}
				switch in.Op {
				case ir.OpAlloca, ir.OpMalloc, ir.OpHAlloc:
					rec.site = uint32(len(p.objs))
					p.objs = append(p.objs, Object{Site: in})
				}
				p.ops = append(p.ops, rec)
				tab.ops[in.ValueID()] = &p.ops[rec.idx]
			}
		}
		for _, l := range ir.FindLoops(f, ir.BuildDomTree(f)) {
			rec := &loopRec{info: LoopInfo{Loop: l}, body: make([]bool, len(f.Blocks))}
			for _, b := range l.Blocks {
				rec.body[b.Index] = true
				if br := &tab.blocks[b.Index]; br.inner == nil || br.inner.info.Loop.Depth < l.Depth {
					br.inner = rec
				}
			}
			tab.blocks[l.Header.Index].header = rec
			p.loops = append(p.loops, rec)
		}
	}
	sets := make(objSet, (1+2*len(p.loops))*p.words)
	p.inLoop, sets = sets[:p.words:p.words], sets[p.words:]
	for _, l := range p.loops {
		l.allocated, l.violations, sets = sets[:p.words:p.words], sets[p.words:2*p.words:2*p.words], sets[2*p.words:]
	}
	p.srcBits = uint(bits.Len(uint(len(p.ops))))
	p.maxClock = ^uint64(0) >> p.srcBits
	return p
}

// isMemOp reports whether an instruction of opcode op fires memory hooks.
func isMemOp(op ir.Op) bool {
	switch op {
	case ir.OpLoad, ir.OpStore, ir.OpAlloca, ir.OpMalloc, ir.OpFree, ir.OpMemSet, ir.OpMemCopy, ir.OpHAlloc, ir.OpHDealloc:
		return true
	}
	return false
}

// Attach installs profiling hooks on it. The interpreter must execute the
// same module the profiler was built for.
func (p *Profiler) Attach(it *interp.Interp) error {
	if err := it.LayOutGlobals(); err != nil {
		return err
	}
	for i, name := range it.Mod.GlobalNames() {
		g := it.Mod.Globals[name]
		addr := it.GlobalAddr(g)
		p.objects.Insert(addr, addr+uint64(g.Size), span{obj: uint32(1 + i), id: p.newID()})
	}
	p.it = it
	it.Hooks.OnBlock = p.onBlock
	it.Hooks.OnEnter = p.onEnter
	it.Hooks.OnExit = p.onExit
	it.Hooks.OnLoad = p.onLoad
	it.Hooks.OnStore = p.onStore
	it.Hooks.OnAlloc = p.onAlloc
	it.Hooks.OnFree = p.onFree
	return nil
}

// order compares a and b in program order: function name, block index,
// index in block.
func order(a, b *ir.Instr) int {
	switch {
	case a == b:
		return 0
	case a.Blk.Fn != b.Blk.Fn:
		return strings.Compare(a.Blk.Fn.Name, b.Blk.Fn.Name)
	case a.Blk != b.Blk:
		return cmp.Compare(a.Blk.Index, b.Blk.Index)
	}
	for _, in := range a.Blk.Instrs {
		if in == a {
			return -1
		} else if in == b {
			return 1
		}
	}
	return 0
}

// sharedSet is an index set folded into an ObjectSet.
type sharedSet struct {
	words objSet
	set   ObjectSet
}

// objectSet returns the objects in s, nil if none. Equal sets come back as
// one map: seen holds the sets folded so far.
func (p *Profiler) objectSet(s objSet, seen *[]sharedSet) ObjectSet {
	n := 0
	for _, word := range s {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return nil
	}
	for _, sh := range *seen {
		if slices.Equal(sh.words, s) {
			return sh.set
		}
	}
	set := make(ObjectSet, n)
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			set[p.objs[64*w+bits.TrailingZeros64(word)]] = true
		}
	}
	*seen = append(*seen, sharedSet{s, set})
	return set
}

// Profile folds the side tables into the exported maps and returns the
// accumulated profile.
func (p *Profiler) Profile(steps int64) *Profile {
	var nPointsTo, nConst int
	for i := range p.ops {
		if slices.ContainsFunc(p.set(&p.ops[i]), func(w uint64) bool { return w != 0 }) {
			nPointsTo++
		}
		if p.ops[i].konst.Count > 0 {
			nConst++
		}
	}
	n := len(p.loops)
	prof := &Profile{
		Mod:                  p.mod,
		Loops:                make(map[*ir.Loop]*LoopInfo, n),
		AllLoops:             make([]*ir.Loop, n),
		PointsTo:             make(map[*ir.Instr]ObjectSet, nPointsTo),
		CarriedFlow:          make(map[*ir.Loop][]*Dep, n),
		ShortLivedViolations: make(map[*ir.Loop]ObjectSet, n),
		AllocatedIn:          make(map[*ir.Loop]ObjectSet, n),
		LoadConst:            make(map[*ir.Instr]*ConstInfo, nConst),
		CarriedReads:         make(map[*ir.Loop]map[*ir.Instr]*CarriedReadInfo, n),
		BlockRuns:            map[*ir.Block]int64{},
		Steps:                steps,
	}
	var seen []sharedSet
	for i := range p.ops {
		rec := &p.ops[i]
		if set := p.objectSet(p.set(rec), &seen); set != nil {
			prof.PointsTo[rec.in] = set
		}
		if rec.konst.Count > 0 {
			prof.LoadConst[rec.in] = &rec.konst
		}
	}
	for _, tab := range p.tabs {
		for _, br := range tab.blocks {
			if br.runs > 0 {
				prof.BlockRuns[br.blk] = br.runs
			}
		}
	}
	var names []string
	name := func(o uint32) string {
		if names == nil {
			names = make([]string, len(p.objs))
		}
		if names[o] == "" {
			names[o] = p.objs[o].String()
		}
		return names[o]
	}
	var recs []*depRec
	for i, l := range p.loops {
		loop := l.info.Loop
		prof.AllLoops[i] = loop
		prof.Loops[loop] = &l.info
		prof.AllocatedIn[loop] = p.objectSet(l.allocated, &seen)
		prof.ShortLivedViolations[loop] = p.objectSet(l.violations, &seen)
		prof.CarriedReads[loop] = l.reads
		recs = recs[:0]
		for _, d := range l.deps {
			recs = append(recs, d)
		}
		slices.SortFunc(recs, func(a, b *depRec) int {
			switch {
			case a.Count != b.Count:
				return cmp.Compare(b.Count, a.Count)
			case a.obj != b.obj && name(a.obj) != name(b.obj):
				return strings.Compare(name(a.obj), name(b.obj))
			case a.Src != b.Src:
				return order(a.Src, b.Src)
			default:
				return order(a.Dst, b.Dst)
			}
		})
		deps := make([]*Dep, len(recs))
		for i, d := range recs {
			deps[i] = &d.Dep
		}
		prof.CarriedFlow[loop] = deps
	}
	return prof
}

// Run profiles mod end-to-end on a fresh address space: it interprets the
// entry function with args under full instrumentation and returns the
// profile.
func Run(mod *ir.Module, args ...uint64) (*Profile, error) {
	p := NewProfiler(mod)
	it := interp.New(mod, vm.NewAddressSpace())
	if err := p.Attach(it); err != nil {
		return nil, err
	}
	if _, err := it.Run(args...); err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	return p.Profile(it.Steps), nil
}

// rec returns the side-table entry of in, which executes in the innermost
// frame, and its index.
func (p *Profiler) rec(in *ir.Instr) (*opRec, uint32) {
	rec := p.fn.ops[in.ValueID()]
	return rec, rec.idx
}

// newID returns a free slot of gens.
func (p *Profiler) newID() uint32 {
	if n := len(p.ids); n > 0 {
		id := p.ids[n-1]
		p.ids = p.ids[:n-1]
		return id
	}
	p.gens = append(p.gens, 0)
	return uint32(len(p.gens) - 1)
}

// object points rec's memo at the object holding addr, or at a zero span
// based at addr if no object does.
func (p *Profiler) object(rec *opRec, addr uint64) {
	if addr-rec.lo >= rec.n || p.gens[rec.s.id] != rec.objGen {
		p.lookup(rec, addr)
	}
}

// lookup is object past rec's memo. A memo hit is an object rec has
// accessed before, so only a lookup adds to the points-to set.
func (p *Profiler) lookup(rec *opRec, addr uint64) {
	lo, hi, s, ok := p.objects.FindHint(&rec.hint, addr)
	if !ok {
		rec.lo, rec.n, rec.s = addr, 0, span{}
		return
	}
	rec.lo, rec.n, rec.s, rec.objGen = lo, hi-lo, s, p.gens[s.id]
	p.access(rec, s.obj)
}

// set returns the index set behind PointsTo[rec.in].
func (p *Profiler) set(rec *opRec) objSet { return p.sets[rec.objs : rec.objs+p.words] }

// access adds object o to those rec's address operand has referenced.
func (p *Profiler) access(rec *opRec, o uint32) {
	if o != 0 {
		p.set(rec).add(o)
	}
}

// page returns shadow page pn for an access by rec. Only a write makes a
// page; a read of untouched memory gets unwritten.
func (p *Profiler) page(rec *opRec, pn uint64, write bool) *shadowPage {
	if pn == rec.pn && rec.gen == p.made {
		return rec.page
	}
	return p.remap(rec, pn, write)
}

// remap points rec's page memo at page pn, making the page for a write.
// Making a page invalidates every memo, so none keeps unwritten for it, and
// a memcopy, which also writes, never keeps unwritten. Kept out of line so
// that page inlines.
//
//go:noinline
func (p *Profiler) remap(rec *opRec, pn uint64, write bool) *shadowPage {
	pg := p.pages[pn]
	if pg == nil && write {
		pg = new(shadowPage)
		p.pages[pn] = pg
		p.made++
	}
	if pg == nil {
		if rec.in.Op != ir.OpMemCopy {
			rec.pn, rec.page, rec.gen = pn, &unwritten, p.made
		}
		return &unwritten
	}
	rec.pn, rec.page, rec.gen = pn, pg, p.made
	return pg
}

func (p *Profiler) onEnter(fr *interp.Frame) {
	if fr.Fn != p.lastFn {
		p.lastFn, p.last = fr.Fn, p.tabs[fr.Fn]
	}
	p.frames = append(p.frames[:fr.Depth], p.last)
	p.fn = p.last
	p.fn.blocks[0].runs++
}

func (p *Profiler) onBlock(fr *interp.Frame, from, to *ir.Block) {
	br := &p.fn.blocks[to.Index]
	br.runs++
	// A transfer to a block of the innermost active loop, or inside one of
	// its callees, neither ends nor starts an activation.
	if n := len(p.stack); br.header != nil || n > 0 && p.stack[n-1].depth == fr.Depth && p.stack[n-1].loopRec != br.inner {
		p.nest(fr.Depth, br, from, to)
	}
}

// nest pops the activations of the frame at depth that do not contain to,
// of table entry br, then, if to heads a loop, starts an iteration of the
// loop's activation or a new activation.
func (p *Profiler) nest(depth int, br *blockRec, from, to *ir.Block) {
	for n := len(p.stack); n > 0 && p.stack[n-1].depth == depth && p.stack[n-1].loopRec != br.inner && !p.stack[n-1].body[to.Index]; n-- {
		p.pop()
	}
	l := br.header
	if l == nil {
		return
	}
	n := len(p.stack)
	again := n > 0 && p.stack[n-1].depth == depth && p.stack[n-1].loopRec == l
	if again && !l.body[from.Index] {
		// A jump to the header from outside while the instance is active
		// cannot happen in reducible CFGs.
		return
	}
	// A larger reading would not fit in a shadow word beside an index
	// into ops.
	if p.clock++; p.clock > p.maxClock {
		panic(fmt.Sprintf("profiling: %d loop activations and iterations overflow the %d-bit clock of a shadow word",
			p.clock, 64-p.srcBits))
	}
	if again {
		inst := &p.stack[n-1]
		if len(inst.live) > 0 {
			p.endIteration(inst)
		}
		inst.iterT = p.clock
		l.info.Iterations++
		return
	}
	var live []liveAlloc
	if n < cap(p.stack) {
		live = p.stack[:n+1][n].live[:0]
	}
	p.stack = append(p.stack, loopInst{
		loopRec: l, depth: depth, startT: p.clock, iterT: p.clock, steps0: p.it.Steps, live: live,
	})
	l.info.Invocations++
	l.info.Iterations++
}

// endIteration ends inst's iteration: objects allocated during it that are
// still live violate the short-lived property.
func (p *Profiler) endIteration(inst *loopInst) {
	for _, a := range inst.live {
		if lo, _, s, ok := p.objects.Find(a.addr); ok && lo == a.addr && s == a.span {
			inst.violations.add(s.obj)
		}
	}
	inst.live = inst.live[:0]
}

// pop ends the top activation: anything it allocated that is still live
// outlived its iteration.
func (p *Profiler) pop() {
	inst := &p.stack[len(p.stack)-1]
	p.endIteration(inst)
	inst.info.Steps += p.it.Steps - inst.steps0
	p.stack = p.stack[:len(p.stack)-1]
}

func (p *Profiler) onExit(fr *interp.Frame) {
	for n := len(p.stack); n > 0 && p.stack[n-1].depth >= fr.Depth; n-- {
		p.pop()
	}
	if fr.Depth > 0 {
		p.fn = p.frames[fr.Depth-1]
	}
}

func (p *Profiler) onLoad(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
	rec, dst := p.rec(in)
	p.object(rec, addr)
	s, lo := rec.s, rec.lo
	if len(p.stack) == 0 {
		return
	}
	// Value-prediction profile: only meaningful inside loops.
	if in.Op == ir.OpLoad {
		val := fr.Value(in)
		if ci := &rec.konst; ci.Count == 0 {
			*ci = ConstInfo{Value: val, Stable: true}
		} else if ci.Value != val {
			ci.Stable = false
		}
		rec.konst.Count++
	}
	// Flow-dependence profile at byte granularity, one run of bytes sharing
	// a last write at a time.
	p.loads++
	for a, end := addr, addr+uint64(size); a < end; {
		i := int(a % shadowPageSize)
		lim := min(int(end-a), shadowPageSize-i)
		pg := p.page(rec, a/shadowPageSize, false)
		if pg == &unwritten {
			a += uint64(lim)
			continue
		}
		var w uint64
		n := 1
		if pg.bytes != nil {
			run := pg.bytes[i : i+lim]
			for w = run[0]; n < len(run) && run[n] == w; n++ {
			}
		} else {
			k, run := i/8, pg.words[:(i+lim+7)/8]
			for w = run[k]; k+1 < len(run) && run[k+1] == w; k++ {
			}
			n = min(8*(k+1)-i, lim)
		}
		a += uint64(n)
		inst := p.carrier(w >> p.srcBits)
		if inst == nil {
			continue
		}
		if src := uint32(w & (1<<p.srcBits - 1)); rec.depLoop != inst.loopRec || rec.depSrc != src {
			key := uint64(src)<<32 | uint64(dst)
			d := inst.deps[key]
			if d == nil {
				if inst.deps == nil {
					inst.deps = map[uint64]*depRec{}
				}
				d = &depRec{Dep{Src: p.ops[src].in, Dst: in, Object: p.objs[s.obj]}, s.obj}
				inst.deps[key] = d
			}
			rec.depLoop, rec.depSrc, rec.dep = inst.loopRec, src, d
		}
		rec.dep.Count += int64(n)
		if inst.seenLoad != p.loads {
			inst.seenLoad = p.loads
			val := fr.Value(in)
			if rec.crLoop != inst.loopRec {
				p.carriedRead(rec, inst.loopRec, addr, size, val, s.obj, addr-lo)
			}
			ci := rec.cr
			ci.Count++
			if ci.Addr != addr || ci.Value != val {
				ci.Stable = false
			}
		}
	}
	p.checkLifetime(s)
}

// carrier returns the activation in which a read of a byte last written at
// clock t is loop-carried, or nil. Windows grow with stack depth, so the walk
// stops at the first activation whose current iteration began by t.
func (p *Profiler) carrier(t uint64) *loopInst {
	for i := len(p.stack) - 1; i >= 0 && t < p.stack[i].iterT; i-- {
		if t >= p.stack[i].startT {
			return &p.stack[i]
		}
	}
	return nil
}

// carriedRead points rec's memo at l's value-prediction profile of the
// carried reads of rec's load, making it, from this first occurrence, if
// there is none; off is addr's offset in object obj.
func (p *Profiler) carriedRead(rec *opRec, l *loopRec, addr uint64, size int64, val uint64, obj uint32, off uint64) {
	ci := l.reads[rec.in]
	if ci == nil {
		if l.reads == nil {
			l.reads = map[*ir.Instr]*CarriedReadInfo{}
		}
		ci = &CarriedReadInfo{Addr: addr, Value: val, Size: size, Object: p.objs[obj], Offset: off, Stable: true}
		l.reads[rec.in] = ci
	}
	rec.crLoop, rec.cr = l, ci
}

func (p *Profiler) onStore(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
	rec, src := p.rec(in)
	p.object(rec, addr)
	s := rec.s
	if len(p.stack) == 0 {
		return
	}
	w := p.clock<<p.srcBits | uint64(src)
	for a, end := addr, addr+uint64(size); a < end; {
		i := int(a % shadowPageSize)
		n := min(int(end-a), shadowPageSize-i)
		pg := p.page(rec, a/shadowPageSize, true)
		var run []uint64
		if pg.bytes == nil && (i|n)%8 == 0 {
			run = pg.words[i/8 : (i+n)/8]
		} else {
			if pg.bytes == nil {
				pg.expand()
			}
			run = pg.bytes[i : i+n]
		}
		for k := range run {
			run[k] = w
		}
		a += uint64(n)
	}
	p.checkLifetime(s)
}

// checkLifetime flags short-lived violations on an access to, or a free of,
// the object of s: it is from a site that allocates within an active loop,
// but was not allocated in that loop's current iteration.
func (p *Profiler) checkLifetime(s span) {
	if p.inLoop[s.obj/64]&(1<<(s.obj%64)) != 0 {
		p.outlived(s)
	}
}

// outlived is checkLifetime for a site that has allocated inside a loop.
func (p *Profiler) outlived(s span) {
	for i := range p.stack {
		inst := &p.stack[i]
		if s.born < inst.iterT && inst.allocated.has(s.obj) {
			inst.violations.add(s.obj)
		}
	}
}

func (p *Profiler) onAlloc(fr *interp.Frame, in *ir.Instr, addr, size uint64) {
	rec, _ := p.rec(in)
	s := span{obj: rec.site, born: p.clock}
	if size > 0 {
		s.id = p.newID()
		p.objects.Insert(addr, addr+size, s)
	}
	if len(p.stack) > 0 {
		p.inLoop.add(s.obj)
	}
	for i := range p.stack {
		inst := &p.stack[i]
		inst.allocated.add(s.obj)
		inst.live = append(inst.live, liveAlloc{addr, s})
	}
}

func (p *Profiler) onFree(fr *interp.Frame, in *ir.Instr, addr uint64) {
	s, ok := p.objects.Remove(addr)
	if !ok {
		return
	}
	p.gens[s.id]++
	p.ids = append(p.ids, s.id)
	if in != nil {
		rec, _ := p.rec(in)
		p.access(rec, s.obj)
	}
	p.checkLifetime(s)
}
