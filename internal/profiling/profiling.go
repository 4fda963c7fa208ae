// Package profiling implements Privateer's profilers (section 4.1 of the
// paper): the pointer-to-object profiler that connects dynamic pointer
// addresses to memory-object names via an interval map, the object-lifetime
// profiler that identifies short-lived objects, the memory flow-dependence
// profiler that finds loop-carried flow dependences, the value-prediction
// profiler, and the execution-time profiler that ranks hot loops.
//
// All profilers attach to a single instrumented interpretation of the
// program on a training input and produce one Profile consumed by the
// classification and transformation stages.
package profiling

import (
	"fmt"
	"sort"

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
	// Steps approximates dynamic instructions spent inside the loop,
	// including callees (the execution-time profile).
	Steps int64
}

// Profile is the combined result of one profiling run.
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
// loop allocates and clears nothing.

const shadowPageSize = 1 << 12

// shadowPage holds no pointer, so the collector never scans it: src indexes
// Profiler.instrs.
type shadowPage struct {
	t   [shadowPageSize]uint64
	src [shadowPageSize]uint32
}

// unwritten stands in, for reads, for every page no in-loop store has
// touched. Nothing writes to it.
var unwritten shadowPage

// loopRec is the profiler's record of one static loop. The maps are the
// ones the Profile exports.
type loopRec struct {
	info                  LoopInfo
	allocated, violations ObjectSet
	deps                  map[[2]*ir.Instr]*Dep
	reads                 map[*ir.Instr]*CarriedReadInfo
	// body[b.Index] is Loop.Contains(b) without the map lookup.
	body []bool
}

// loopInst is one dynamic activation of a loop.
type loopInst struct {
	*loopRec
	depth         int
	startT, iterT uint64
	// cost0 is Profiler.cost when the activation began.
	cost0 int64
	// seenLoad is the Profiler.loads of the last load this activation
	// carried, so a load straddling two writes is one carried read.
	seenLoad int64
	// live maps the base address of every object allocated in the current
	// iteration, and not freed yet, to its site; nil until the first one.
	live map[uint64]Object
}

// instrRec is the dense side-table entry of one instruction.
type instrRec struct {
	in *ir.Instr
	// objs is PointsTo[in]; lastObj, the object last added, makes a repeat
	// access a single compare.
	objs    ObjectSet
	lastObj Object
	// konst is LoadConst[in] once Count > 0.
	konst ConstInfo
	// dep is the dependence the load last manifested, in depLoop from
	// depSrc: an 8-byte carried read is one lookup, not eight.
	depLoop *loopRec
	depSrc  uint32
	dep     *Dep
}

type blockRec struct {
	blk  *ir.Block
	runs int64
	// header is the loop blk heads, if any.
	header *loopRec
}

// fnBase locates a function's values and blocks in the dense tables.
type fnBase struct{ val, blk int }

// Profiler instruments an interpreter and accumulates a Profile.
type Profiler struct {
	prof *Profile

	// instrs and blocks are indexed by a function's base plus ValueID and
	// Block.Index; Profile folds them into the exported maps. lastFn is a
	// one-entry memo in front of bases.
	bases  map[*ir.Function]fnBase
	lastFn *ir.Function
	last   fnBase
	instrs []instrRec
	blocks []blockRec

	objects intervalmap.Map[Object]
	stack   []loopInst
	clock   uint64
	// cost sums len(to.Instrs) over every block transition: an activation's
	// Steps is the growth of cost while it was on the stack.
	cost  int64
	loads int64

	// lastPage caches pages[lastPN] (or unwritten).
	pages    map[uint64]*shadowPage
	lastPN   uint64
	lastPage *shadowPage
}

// NewProfiler prepares a profiler for mod, computing loop structure for
// every function.
func NewProfiler(mod *ir.Module) *Profiler {
	p := &Profiler{
		prof: &Profile{
			Mod:                  mod,
			Loops:                map[*ir.Loop]*LoopInfo{},
			PointsTo:             map[*ir.Instr]ObjectSet{},
			CarriedFlow:          map[*ir.Loop][]*Dep{},
			ShortLivedViolations: map[*ir.Loop]ObjectSet{},
			AllocatedIn:          map[*ir.Loop]ObjectSet{},
			LoadConst:            map[*ir.Instr]*ConstInfo{},
			CarriedReads:         map[*ir.Loop]map[*ir.Instr]*CarriedReadInfo{},
			BlockRuns:            map[*ir.Block]int64{},
		},
		bases:  map[*ir.Function]fnBase{},
		pages:  map[uint64]*shadowPage{},
		lastPN: ^uint64(0),
	}
	for _, f := range mod.SortedFuncs() {
		f.Recompute()
		base := fnBase{len(p.instrs), len(p.blocks)}
		p.bases[f] = base
		p.instrs = append(p.instrs, make([]instrRec, f.NumValues())...)
		for _, b := range f.Blocks {
			p.blocks = append(p.blocks, blockRec{blk: b})
			for _, in := range b.Instrs {
				p.instrs[base.val+in.ValueID()].in = in
			}
		}
		for _, l := range ir.FindLoops(f, ir.BuildDomTree(f)) {
			rec := &loopRec{
				info:       LoopInfo{Loop: l},
				allocated:  ObjectSet{},
				violations: ObjectSet{},
				deps:       map[[2]*ir.Instr]*Dep{},
				reads:      map[*ir.Instr]*CarriedReadInfo{},
				body:       make([]bool, len(f.Blocks)),
			}
			for _, b := range l.Blocks {
				rec.body[b.Index] = true
			}
			p.blocks[base.blk+l.Header.Index].header = rec
			p.prof.AllLoops = append(p.prof.AllLoops, l)
			p.prof.Loops[l] = &rec.info
			p.prof.ShortLivedViolations[l] = rec.violations
			p.prof.AllocatedIn[l] = rec.allocated
			p.prof.CarriedReads[l] = rec.reads
		}
	}
	return p
}

// Attach installs profiling hooks on it. The interpreter must execute the
// same module the profiler was built for.
func (p *Profiler) Attach(it *interp.Interp) error {
	if err := it.LayOutGlobals(); err != nil {
		return err
	}
	for _, name := range it.Mod.GlobalNames() {
		g := it.Mod.Globals[name]
		addr := it.GlobalAddr(g)
		p.objects.Insert(addr, addr+uint64(g.Size), Object{Global: g})
	}
	it.Hooks.OnBlock = p.onBlock
	it.Hooks.OnEnter = p.onEnter
	it.Hooks.OnExit = p.onExit
	it.Hooks.OnLoad = p.onLoad
	it.Hooks.OnStore = p.onStore
	it.Hooks.OnAlloc = p.onAlloc
	it.Hooks.OnFree = p.onFree
	return nil
}

// before reports whether a precedes b in program order: function name, block
// index, index in block.
func before(a, b *ir.Instr) bool {
	if a.Blk.Fn != b.Blk.Fn {
		return a.Blk.Fn.Name < b.Blk.Fn.Name
	}
	if a.Blk != b.Blk {
		return a.Blk.Index < b.Blk.Index
	}
	for _, in := range a.Blk.Instrs {
		if in == a || in == b {
			return in == a && a != b
		}
	}
	return false
}

// Profile folds the side tables into the exported maps and returns the
// accumulated profile.
func (p *Profiler) Profile(steps int64) *Profile {
	for i := range p.instrs {
		rec := &p.instrs[i]
		if rec.objs != nil {
			p.prof.PointsTo[rec.in] = rec.objs
		}
		if rec.konst.Count > 0 {
			p.prof.LoadConst[rec.in] = &rec.konst
		}
	}
	for _, br := range p.blocks {
		if br.runs > 0 {
			p.prof.BlockRuns[br.blk] = br.runs
		}
		if br.header == nil {
			continue
		}
		deps := make([]*Dep, 0, len(br.header.deps))
		for _, d := range br.header.deps {
			deps = append(deps, d)
		}
		sort.Slice(deps, func(i, j int) bool {
			a, b := deps[i], deps[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			if as, bs := a.Object.String(), b.Object.String(); as != bs {
				return as < bs
			}
			if a.Src != b.Src {
				return before(a.Src, b.Src)
			}
			return before(a.Dst, b.Dst)
		})
		p.prof.CarriedFlow[br.header.info.Loop] = deps
	}
	p.prof.Steps = steps
	return p.prof
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

func (p *Profiler) base(fn *ir.Function) fnBase {
	if fn != p.lastFn {
		p.lastFn, p.last = fn, p.bases[fn]
	}
	return p.last
}

// access returns in's side-table entry and index, and adds o to the objects
// in's address operand has referenced.
func (p *Profiler) access(fn *ir.Function, in *ir.Instr, o Object) (*instrRec, uint32) {
	i := p.base(fn).val + in.ValueID()
	rec := &p.instrs[i]
	if o != rec.lastObj && !o.IsZero() {
		if rec.objs == nil {
			rec.objs = ObjectSet{}
		}
		rec.objs[o] = true
		rec.lastObj = o
	}
	return rec, uint32(i)
}

// shadow returns the page shadowing addr and addr's index in it. Only a
// write makes a page; a read of untouched memory gets unwritten.
func (p *Profiler) shadow(addr uint64, write bool) (*shadowPage, int) {
	pn := addr / shadowPageSize
	if pn != p.lastPN {
		p.lastPN, p.lastPage = pn, p.pages[pn]
		if p.lastPage == nil {
			p.lastPage = &unwritten
		}
	}
	if write && p.lastPage == &unwritten {
		p.lastPage = new(shadowPage)
		p.pages[pn] = p.lastPage
	}
	return p.lastPage, int(addr % shadowPageSize)
}

func (p *Profiler) onEnter(fr *interp.Frame) {
	p.blocks[p.base(fr.Fn).blk].runs++
}

func (p *Profiler) onBlock(fr *interp.Frame, from, to *ir.Block) {
	br := &p.blocks[p.base(fr.Fn).blk+to.Index]
	br.runs++
	// Pop loop instances of this frame that do not contain the target.
	for n := len(p.stack); n > 0 && p.stack[n-1].depth == fr.Depth && !p.stack[n-1].body[to.Index]; n-- {
		p.pop()
	}
	// Entering a header: either a back edge (iteration) or a fresh
	// invocation.
	if l := br.header; l != nil {
		n := len(p.stack)
		if n > 0 && p.stack[n-1].depth == fr.Depth && p.stack[n-1].loopRec == l {
			// A jump to the header from outside while the instance is
			// active cannot happen in reducible CFGs.
			if l.body[from.Index] {
				p.iterBoundary(&p.stack[n-1])
				l.info.Iterations++
			}
		} else {
			p.clock++
			p.stack = append(p.stack, loopInst{
				loopRec: l, depth: fr.Depth, startT: p.clock, iterT: p.clock, cost0: p.cost,
			})
			l.info.Invocations++
			l.info.Iterations++
		}
	}
	// Execution-time profile: the target block's work belongs to every
	// active loop.
	p.cost += int64(len(to.Instrs))
}

// iterBoundary ends inst's iteration: objects allocated during it that are
// still live violate the short-lived property.
func (p *Profiler) iterBoundary(inst *loopInst) {
	for _, obj := range inst.live {
		inst.violations.Add(obj)
	}
	clear(inst.live)
	p.clock++
	inst.iterT = p.clock
}

// pop ends the top activation: anything it allocated that is still live
// outlived its iteration.
func (p *Profiler) pop() {
	inst := &p.stack[len(p.stack)-1]
	for _, obj := range inst.live {
		inst.violations.Add(obj)
	}
	inst.info.Steps += p.cost - inst.cost0
	p.stack = p.stack[:len(p.stack)-1]
}

func (p *Profiler) onExit(fr *interp.Frame) {
	for n := len(p.stack); n > 0 && p.stack[n-1].depth >= fr.Depth; n-- {
		p.pop()
	}
}

func (p *Profiler) onLoad(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
	lo, _, obj, ok := p.objects.Find(addr)
	if !ok {
		lo = addr // offset 0 in no object
	}
	rec, _ := p.access(fr.Fn, in, obj)
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
		pg, i := p.shadow(a, false)
		t, src := pg.t[i], pg.src[i]
		n := 1
		for lim := min(int(end-a), shadowPageSize-i); n < lim && pg.t[i+n] == t && pg.src[i+n] == src; n++ {
		}
		a += uint64(n)
		inst := p.carrier(t)
		if inst == nil {
			continue
		}
		if rec.depLoop != inst.loopRec || rec.depSrc != src {
			key := [2]*ir.Instr{p.instrs[src].in, in}
			d := inst.deps[key]
			if d == nil {
				d = &Dep{Src: key[0], Dst: in, Object: obj}
				inst.deps[key] = d
			}
			rec.depLoop, rec.depSrc, rec.dep = inst.loopRec, src, d
		}
		rec.dep.Count += int64(n)
		if inst.seenLoad != p.loads {
			inst.seenLoad = p.loads
			recordCarriedRead(inst.reads, in, addr, size, fr.Value(in), obj, addr-lo)
		}
	}
	p.checkAccessLifetime(obj, lo)
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

// recordCarriedRead updates the value-prediction profile of a carried read
// occurrence; off is addr's offset in obj.
func recordCarriedRead(m map[*ir.Instr]*CarriedReadInfo, in *ir.Instr, addr uint64, size int64, val uint64, obj Object, off uint64) {
	ci := m[in]
	if ci == nil {
		m[in] = &CarriedReadInfo{
			Addr: addr, Value: val, Size: size, Object: obj, Offset: off,
			Stable: true, Count: 1,
		}
		return
	}
	ci.Count++
	if ci.Addr != addr || ci.Value != val {
		ci.Stable = false
	}
}

func (p *Profiler) onStore(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
	lo, _, obj, _ := p.objects.Find(addr)
	_, src := p.access(fr.Fn, in, obj)
	if len(p.stack) == 0 {
		return
	}
	for a, end := addr, addr+uint64(size); a < end; {
		pg, i := p.shadow(a, true)
		n := min(int(end-a), shadowPageSize-i)
		for k := i; k < i+n; k++ {
			pg.t[k], pg.src[k] = p.clock, src
		}
		a += uint64(n)
	}
	p.checkAccessLifetime(obj, lo)
}

// checkAccessLifetime flags short-lived violations: obj, based at lo, is from
// a site that allocates within an active loop, but was not allocated in that
// loop's current iteration (live holds exactly the objects that were).
func (p *Profiler) checkAccessLifetime(obj Object, lo uint64) {
	if obj.Site == nil {
		return
	}
	for i := range p.stack {
		inst := &p.stack[i]
		if len(inst.allocated) == 0 {
			continue
		}
		if _, live := inst.live[lo]; !live && inst.allocated[obj] {
			inst.violations.Add(obj)
		}
	}
}

func (p *Profiler) onAlloc(fr *interp.Frame, in *ir.Instr, addr, size uint64) {
	obj := Object{Site: in}
	p.objects.Insert(addr, addr+size, obj)
	for i := range p.stack {
		inst := &p.stack[i]
		inst.allocated.Add(obj)
		if inst.live == nil {
			inst.live = map[uint64]Object{}
		}
		inst.live[addr] = obj
	}
}

func (p *Profiler) onFree(fr *interp.Frame, in *ir.Instr, addr uint64) {
	obj, ok := p.objects.Remove(addr)
	if !ok {
		return
	}
	if in != nil {
		p.access(fr.Fn, in, obj)
	}
	for i := range p.stack {
		inst := &p.stack[i]
		if _, live := inst.live[addr]; live {
			delete(inst.live, addr)
		} else if inst.allocated[obj] {
			// Freed inside the loop, but allocated before this
			// iteration: outlived an iteration.
			inst.violations.Add(obj)
		}
	}
}
