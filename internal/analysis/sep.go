package analysis

// The static separation prover. The dynamic pipeline classifies objects
// into logical heaps from a training profile and then guards the
// classification with runtime checks (check_heap, privacy marks, shadow
// merge/validate walks). This file proves, per loop region and per
// allocation site or global, that a classification claim holds on *every*
// execution — in which case the guards for that object are not merely
// elidable but unnecessary, and the transformer drops them entirely.
//
// Proof rules (each named by a ProofRule, each surfaced as a counter):
//
//   - RuleReadOnly (StaticReadOnly): no instruction that may write memory
//     inside the region — including transitive callees, frees and
//     deallocations — can target the object: every region write's
//     points-to set excludes it and is Unknown-free.
//
//   - RuleIterLocal (StaticPrivate via escape analysis): the object is
//     allocated inside the loop body, freed on every path that completes
//     an iteration (the free dominates all latches), and its pointer
//     never escapes the iteration: it is never stored into memory other
//     than itself, never passed to a callee, never returned, never
//     carried by a header phi, and never reaches a value outside the
//     loop.
//
//   - RuleAffineDisjoint (StaticPrivate via NoCarriedOverlap generalized
//     to sets of accesses): every region access that may touch the
//     object is an affine load/store in the loop's own body, and every
//     pair involving a write is carried-disjoint.
//
//   - RuleCoveredWrite (StaticPrivate via covering writes): every read of
//     the object inside an iteration is dominated by writes that fully
//     re-initialize it within that same iteration, so no value can flow
//     in from a previous iteration. Coverage accumulates from
//     constant-offset stores, constant memsets, and counted inner loops
//     that store a contiguous stride; callees may be "self-covering"
//     (they re-initialize the object before any internal read).
//
//   - RuleRedux (StaticRedux): the reduction update ir.ReduxUpdate
//     recognises (load; associative-commutative op; store back through
//     the same address value) is provably the only access path to the
//     object inside the region.
//
// Soundness notes. May-information (which accesses might touch the
// object) always comes from the Unknown-closed points-to sets; a proof is
// attempted only when every relevant set is Unknown-free, which
// MayAlias's contract tests pin. Must-information (coverage intervals)
// never comes from points-to: it requires baseOf, a separate walk that
// resolves a value to the *definite* base address of an object through
// casts, uniform phis/selects, and parameters whose every call site
// passes the same base. Within-iteration ordering uses dominance: for
// blocks A, B in the loop body, A dom B implies A executed in the same
// iteration before B — a header-to-B path avoiding A would compose with
// the A-free entry-to-header prefix into an entry-to-B path avoiding A,
// contradicting A dom B. A counted inner loop's coverage completes at
// its exit block only when that block's single predecessor is the loop
// header, so reaching it implies all iterations ran.
//
// A wrong static proof silently corrupts output instead of
// misspeculating, so every claim the prover emits is audited dynamically:
// see internal/audit (profile-based oracle) and specrt's SepAudit mode
// (runtime read-before-write/write-to-readonly oracle).

import (
	"fmt"
	"sort"
	"strings"

	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// ProofRule names one static separation proof rule.
type ProofRule string

// The proof rules, in the order the prover attempts them within a class.
const (
	RuleReadOnly       ProofRule = "readonly"
	RuleIterLocal      ProofRule = "iterlocal"
	RuleCoveredWrite   ProofRule = "covered"
	RuleAffineDisjoint ProofRule = "affine"
	RuleRedux          ProofRule = "redux"
)

// Rules lists every proof rule in deterministic report order.
var Rules = []ProofRule{RuleReadOnly, RuleIterLocal, RuleCoveredWrite, RuleAffineDisjoint, RuleRedux}

// SepCandidates carries, per dynamic classification class, the objects the
// prover should attempt to verify statically. The classification only
// selects which claims are attempted; the proofs themselves use static
// facts exclusively, which is what lets the dynamic profile act as an
// independent audit oracle afterwards.
type SepCandidates struct {
	// ReadOnly holds objects the profile classified read-only.
	ReadOnly profiling.ObjectSet
	// ShortLived holds objects the profile classified iteration-local.
	ShortLived profiling.ObjectSet
	// Private holds objects the profile classified private.
	Private profiling.ObjectSet
	// Redux holds objects the profile classified as reductions.
	Redux profiling.ObjectSet
}

// SepResult is the prover's verdict for one loop region.
type SepResult struct {
	// Loop is the region the proofs are scoped to.
	Loop *ir.Loop
	// Proven maps each statically-proven object to its winning rule.
	Proven map[profiling.Object]ProofRule
	// FullOverwrite marks proven covered-write objects with the stronger
	// property that every region iteration unconditionally rewrites the
	// whole object (covering elements dominate every latch) and the object
	// provably outlives the region (it cannot be allocated inside it).
	// Only these objects may have their privacy marks dropped wholesale:
	// the runtime then installs the object's content from the worker that
	// executed each interval's last iteration, which is exactly the
	// sequential final state because earlier iterations' values are dead.
	FullOverwrite map[profiling.Object]bool
	// Writes records every object some region write may target, and
	// WritesUnknown whether any region write address is unresolvable.
	// Together they let the runtime decide region-level questions (e.g.
	// "can this region write the read-only heap at all?") beyond the
	// per-candidate proofs.
	Writes profiling.ObjectSet
	// WritesUnknown reports an unresolvable region write (see Writes).
	WritesUnknown bool
}

// StaticallyPrivatized reports whether o's per-access privacy marks can
// be dropped entirely: proven covered-write AND fully overwritten every
// iteration, so the runtime's wholesale range install reproduces the
// sequential final content.
func (r *SepResult) StaticallyPrivatized(o profiling.Object) bool {
	return r != nil && r.Proven[o] == RuleCoveredWrite && r.FullOverwrite[o]
}

// Rule returns o's winning proof rule, if any.
func (r *SepResult) Rule(o profiling.Object) (ProofRule, bool) {
	if r == nil {
		return "", false
	}
	rule, ok := r.Proven[o]
	return rule, ok
}

// ProvenFor reports whether o carries a proof that discharges the dynamic
// machinery of heap h: the rule must match the claim the heap encodes.
func (r *SepResult) ProvenFor(o profiling.Object, h ir.HeapKind) bool {
	rule, ok := r.Rule(o)
	if !ok {
		return false
	}
	switch h {
	case ir.HeapReadOnly:
		return rule == RuleReadOnly
	case ir.HeapShortLived:
		return rule == RuleIterLocal
	case ir.HeapPrivate:
		return rule == RuleCoveredWrite || rule == RuleAffineDisjoint
	case ir.HeapRedux:
		return rule == RuleRedux
	}
	return false
}

// CountByRule returns the number of proven objects per rule.
func (r *SepResult) CountByRule() map[ProofRule]int {
	out := map[ProofRule]int{}
	if r == nil {
		return out
	}
	for _, rule := range r.Proven {
		out[rule]++
	}
	return out
}

// ByRule returns, per rule, the sorted names of proven objects.
func (r *SepResult) ByRule() map[ProofRule][]string {
	out := map[ProofRule][]string{}
	if r == nil {
		return out
	}
	for o, rule := range r.Proven {
		out[rule] = append(out[rule], o.String())
	}
	for _, ns := range out {
		sort.Strings(ns)
	}
	return out
}

// Summary renders the result deterministically, one "rule: objects" line
// per nonempty rule.
func (r *SepResult) Summary() string {
	by := r.ByRule()
	var sb strings.Builder
	for _, rule := range Rules {
		if ns := by[rule]; len(ns) > 0 {
			fmt.Fprintf(&sb, "%-9s %s\n", string(rule)+":", strings.Join(ns, " "))
		}
	}
	if sb.Len() == 0 {
		return "(nothing proven)\n"
	}
	return sb.String()
}

// Plant forces an entry into the result. It exists solely so tests and
// the audit harness can inject a deliberately-unsound proof and verify
// the oracles catch it; production code must never call it.
func (r *SepResult) Plant(o profiling.Object, rule ProofRule) {
	if r.Proven == nil {
		r.Proven = map[profiling.Object]ProofRule{}
	}
	r.Proven[o] = rule
	if rule == RuleCoveredWrite {
		// Planted covered claims must reach the wholesale mark-drop path,
		// or the oracle under test would never see the unsound drop.
		if r.FullOverwrite == nil {
			r.FullOverwrite = map[profiling.Object]bool{}
		}
		r.FullOverwrite[o] = true
	}
}

// sepProver bundles the per-region state shared by the proof rules.
type sepProver struct {
	l      *ir.Loop
	fn     *ir.Function
	pt     *PointsTo
	writes []*ir.Instr
	reads  []*ir.Instr
	// unknownWrite / unknownRead record whether any region write / read has
	// an unresolvable address; each poisons whole families of proofs.
	unknownWrite bool
	unknownRead  bool
	// written holds every object some region write may target.
	written profiling.ObjectSet
	// uses answers proveRedux's reduction queries.
	uses ir.UseIndex

	doms     map[*ir.Function]*ir.DomTree
	loops    map[*ir.Function][]*ir.Loop
	mayRead  map[*ir.Function]map[profiling.Object]int8 // memo: 0 unknown, 1 no, 2 yes
	selfCov  map[*ir.Function]map[profiling.Object]int8 // memo: 0 unvisited, 1 false/visiting, 2 true
	fullWr   map[*ir.Function]map[profiling.Object]int8 // memo for calleeFullyWrites, same encoding
	baseMemo map[ir.Value]baseResult
}

type baseResult struct {
	obj profiling.Object
	ok  bool
}

// ProveSeparation runs the static separation prover for loop l over the
// candidate objects. The returned result maps each object it could prove
// to the rule that proved it; objects absent from the map keep their full
// dynamic machinery.
func ProveSeparation(l *ir.Loop, pt *PointsTo, cand SepCandidates) *SepResult {
	sp := &sepProver{
		l: l, fn: l.Header.Fn, pt: pt,
		written:  profiling.ObjectSet{},
		uses:     ir.UseIndex{},
		doms:     map[*ir.Function]*ir.DomTree{},
		loops:    map[*ir.Function][]*ir.Loop{},
		mayRead:  map[*ir.Function]map[profiling.Object]int8{},
		selfCov:  map[*ir.Function]map[profiling.Object]int8{},
		fullWr:   map[*ir.Function]map[profiling.Object]int8{},
		baseMemo: map[ir.Value]baseResult{},
	}
	sp.writes, sp.reads = ir.RegionMemOps(l)
	for _, w := range sp.writes {
		objs := sp.objsOf(w, writeAddrOf(w))
		if objs[Unknown] {
			sp.unknownWrite = true
		}
		sp.written.Union(objs)
	}
	for _, r := range sp.reads {
		if sp.objsOf(r, readAddrOf(r))[Unknown] {
			sp.unknownRead = true
		}
	}

	res := &SepResult{
		Loop:          l,
		Proven:        map[profiling.Object]ProofRule{},
		FullOverwrite: map[profiling.Object]bool{},
		Writes:        sp.written,
		WritesUnknown: sp.unknownWrite,
	}
	prove := func(set profiling.ObjectSet, try func(profiling.Object) (ProofRule, bool)) {
		for _, o := range sortedObjects(set) {
			if rule, ok := try(o); ok {
				res.Proven[o] = rule
			}
		}
	}
	prove(cand.ReadOnly, func(o profiling.Object) (ProofRule, bool) {
		return RuleReadOnly, sp.proveReadOnly(o)
	})
	prove(cand.ShortLived, func(o profiling.Object) (ProofRule, bool) {
		return RuleIterLocal, sp.proveIterLocal(o)
	})
	prove(cand.Private, func(o profiling.Object) (ProofRule, bool) {
		if sp.proveCoveredWrite(o) {
			if size, ok := objectSize(o); ok && sp.fullOverwrite(o, size) {
				res.FullOverwrite[o] = true
			}
			return RuleCoveredWrite, true
		}
		return RuleAffineDisjoint, sp.proveAffineDisjoint(o)
	})
	prove(cand.Redux, func(o profiling.Object) (ProofRule, bool) {
		return RuleRedux, sp.proveRedux(o)
	})
	return res
}

// sortedObjects returns the set's objects in deterministic name order.
func sortedObjects(s profiling.ObjectSet) []profiling.Object {
	objs := make([]profiling.Object, 0, len(s))
	for o := range s {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].String() < objs[j].String() })
	return objs
}

// writeAddrOf returns the destination address operand of a writing memory
// op.
func writeAddrOf(in *ir.Instr) ir.Value {
	switch in.Op {
	case ir.OpStore:
		return in.Args[1]
	case ir.OpMemSet, ir.OpMemCopy, ir.OpFree, ir.OpHDealloc:
		return in.Args[0]
	}
	return nil
}

// readAddrOf returns the source address operand of a reading memory op.
func readAddrOf(in *ir.Instr) ir.Value {
	switch in.Op {
	case ir.OpLoad:
		return in.Args[0]
	case ir.OpMemCopy:
		return in.Args[1]
	}
	return nil
}

// objsOf resolves the points-to set of addr in in's function.
func (sp *sepProver) objsOf(in *ir.Instr, addr ir.Value) profiling.ObjectSet {
	return sp.pt.ValueObjects(in.Blk.Fn, addr)
}

// dom returns (building lazily) f's dominator tree.
func (sp *sepProver) dom(f *ir.Function) *ir.DomTree {
	if dt := sp.doms[f]; dt != nil {
		return dt
	}
	f.Recompute()
	dt := ir.BuildDomTree(f)
	sp.doms[f] = dt
	return dt
}

// funcLoops returns (building lazily) f's natural loops.
func (sp *sepProver) funcLoops(f *ir.Function) []*ir.Loop {
	if ls, ok := sp.loops[f]; ok {
		return ls
	}
	ls := ir.FindLoops(f, sp.dom(f))
	sp.loops[f] = ls
	return ls
}

// ---------------------------------------------------------------------------
// RuleReadOnly

// proveReadOnly: no region write may target o, and no region write is
// unresolvable (an Unknown write could target anything, including o).
func (sp *sepProver) proveReadOnly(o profiling.Object) bool {
	return !sp.unknownWrite && !sp.written[o]
}

// ---------------------------------------------------------------------------
// RuleIterLocal

// proveIterLocal: o is allocated in the loop body, freed on every
// completed-iteration path, and its pointer provably never escapes the
// iteration.
func (sp *sepProver) proveIterLocal(o profiling.Object) bool {
	site := o.Site
	if site == nil || !sp.l.ContainsInstr(site) || site.Blk.Fn != sp.fn {
		return false
	}
	switch site.Op {
	case ir.OpMalloc, ir.OpAlloca, ir.OpHAlloc:
	default:
		return false
	}
	// A free of exactly o, in the loop body, dominating every latch: every
	// iteration that takes the back edge has released the object.
	dt := sp.dom(sp.fn)
	freed := false
	for _, w := range sp.writes {
		if w.Op != ir.OpFree && w.Op != ir.OpHDealloc {
			continue
		}
		objs := sp.objsOf(w, writeAddrOf(w))
		if len(objs) != 1 || !objs[o] {
			continue
		}
		if w.Blk.Fn != sp.fn || !sp.l.ContainsInstr(w) {
			continue
		}
		all := true
		for _, latch := range sp.l.Latches {
			if !dt.Dominates(w.Blk, latch) {
				all = false
				break
			}
		}
		if all {
			freed = true
			break
		}
	}
	if !freed {
		return false
	}
	// Escape analysis over value flow: the pointer must stay inside the
	// iteration. Module-wide, no store may save it (except into o itself),
	// no call may receive it, no return may surface it; in the loop's own
	// function no value outside the body and no header phi may carry it.
	escape := false
	mod := sp.fn.Mod
	for _, f := range mod.SortedFuncs() {
		f.Instrs(func(in *ir.Instr) {
			if escape {
				return
			}
			switch in.Op {
			case ir.OpStore:
				if sp.pt.ValueObjects(f, in.Args[0])[o] {
					dst := sp.pt.ValueObjects(f, in.Args[1])
					if len(dst) != 1 || !dst[o] {
						escape = true
					}
				}
			case ir.OpCall, ir.OpBuiltin, ir.OpPrint:
				for _, a := range in.Args {
					if sp.pt.ValueObjects(f, a)[o] {
						escape = true
					}
				}
			case ir.OpRet:
				for _, a := range in.Args {
					if sp.pt.ValueObjects(f, a)[o] {
						escape = true
					}
				}
			}
		})
		if escape {
			return false
		}
	}
	// Values carrying o outside the iteration: anything outside the loop
	// body in the defining function, or a loop-header phi.
	leaked := false
	sp.fn.Instrs(func(in *ir.Instr) {
		if leaked || in.Typ == ir.Void {
			return
		}
		carries := sp.pt.ValueObjects(sp.fn, in)[o]
		if !carries {
			return
		}
		if !sp.l.ContainsInstr(in) {
			leaked = true
		}
		if in.Op == ir.OpPhi && in.Blk == sp.l.Header {
			leaked = true
		}
	})
	return !leaked
}

// ---------------------------------------------------------------------------
// RuleAffineDisjoint

// proveAffineDisjoint: every access that may touch o is an affine
// load/store of the loop's own induction variable, and every pair with a
// write on at least one side is carried-disjoint (NoCarriedOverlap over
// the whole access set, including an access against itself).
func (sp *sepProver) proveAffineDisjoint(o profiling.Object) bool {
	if sp.unknownWrite {
		return false
	}
	iv := ir.FindInductionVar(sp.l)
	if iv == nil {
		return false
	}
	type acc struct {
		aff   Affine
		size  int64
		write bool
	}
	var accs []acc
	collect := func(ins []*ir.Instr, addrOf func(*ir.Instr) ir.Value, write bool) bool {
		for _, in := range ins {
			addr := addrOf(in)
			if addr == nil || !sp.objsOf(in, addr)[o] {
				continue
			}
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				return false // frees, memsets, memcopies: no affine footprint
			}
			if in.Blk.Fn != sp.fn || !sp.l.ContainsInstr(in) {
				return false // callee accesses have no affine form in l's IV
			}
			aff, ok := DecomposeAffine(sp.l, iv, addr)
			if !ok {
				return false
			}
			accs = append(accs, acc{aff: aff, size: in.Size, write: write})
		}
		return true
	}
	if !collect(sp.writes, writeAddrOf, true) || !collect(sp.reads, readAddrOf, false) {
		return false
	}
	if len(accs) == 0 {
		return false
	}
	for i, a := range accs {
		for _, b := range accs[i:] {
			if !a.write && !b.write {
				continue
			}
			if !NoCarriedOverlap(a.aff, b.aff, a.size, b.size) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// RuleCoveredWrite

// covElem is one coverage element: bytes [lo,hi) of the object are fully
// written once control passes the completion point (an instruction for
// straight-line stores, a counted loop's exit block).
type covElem struct {
	lo, hi int64
	instr  *ir.Instr
	block  *ir.Block
}

// covers reports whether the element's completion point strictly precedes
// instruction r on every path.
func (e covElem) covers(dt *ir.DomTree, r *ir.Instr) bool {
	if e.instr != nil {
		return dominatesInstr(dt, e.instr, r)
	}
	return dt.Dominates(e.block, r.Blk)
}

// dominatesInstr reports whether a executes before b on every path
// reaching b (both in the same function).
func dominatesInstr(dt *ir.DomTree, a, b *ir.Instr) bool {
	if a.Blk == b.Blk {
		for _, in := range a.Blk.Instrs {
			if in == a {
				return true
			}
			if in == b {
				return false
			}
		}
		return false
	}
	return dt.Dominates(a.Blk, b.Blk)
}

// objectSize returns o's byte size when statically known.
func objectSize(o profiling.Object) (int64, bool) {
	if o.Global != nil {
		return o.Global.Size, true
	}
	site := o.Site
	if site == nil {
		return 0, false
	}
	switch site.Op {
	case ir.OpAlloca:
		return site.Size, true
	case ir.OpMalloc, ir.OpHAlloc:
		if c, ok := site.Args[0].(*ir.Instr); ok && c.Op == ir.OpConst {
			return int64(c.Const), true
		}
	}
	return 0, false
}

// proveCoveredWrite: every read of o inside an iteration is preceded, in
// that same iteration, by writes covering all of o.
func (sp *sepProver) proveCoveredWrite(o profiling.Object) bool {
	if sp.unknownRead {
		return false
	}
	size, ok := objectSize(o)
	if !ok || size <= 0 {
		return false
	}
	// A region free of o would end the instance mid-region; reject.
	for _, w := range sp.writes {
		if (w.Op == ir.OpFree || w.Op == ir.OpHDealloc) && sp.objsOf(w, writeAddrOf(w))[o] {
			return false
		}
	}
	inBody := func(b *ir.Block) bool { return b.Fn == sp.fn && sp.l.Contains(b) }
	subLoops := func() []*ir.Loop {
		var out []*ir.Loop
		for _, c := range sp.funcLoops(sp.fn) {
			if c != sp.l && sp.l.Contains(c.Header) {
				out = append(out, c)
			}
		}
		return out
	}
	return sp.coveredInScope(sp.fn, inBody, subLoops(), o, size)
}

// fullOverwrite checks the stronger property behind StaticallyPrivatized:
// every iteration of l unconditionally rewrites all of o. Coverage
// elements count only when their completion point dominates every latch
// (they execute on every path through the iteration body); a call counts
// when its callee provably rewrites all of o before returning. The object
// must also outlive the region — it must not be allocatable during it —
// because the runtime's install registry only knows master-side objects,
// and a worker-allocated instance that escaped would otherwise lose its
// unmarked writes. Canonical loop shape (FindInductionVar) guarantees a
// body iteration always reaches the latch, so latch dominance implies
// per-iteration execution.
func (sp *sepProver) fullOverwrite(o profiling.Object, size int64) bool {
	if ir.FindInductionVar(sp.l) == nil {
		return false
	}
	if o.Site != nil && (sp.l.ContainsInstr(o.Site) || sp.regionCanReach(o.Site.Blk.Fn)) {
		return false
	}
	dt := sp.dom(sp.fn)
	domLatches := func(b *ir.Block) bool {
		for _, latch := range sp.l.Latches {
			if !dt.Dominates(b, latch) {
				return false
			}
		}
		return true
	}
	inBody := func(b *ir.Block) bool { return b.Fn == sp.fn && sp.l.Contains(b) }
	var sub []*ir.Loop
	for _, c := range sp.funcLoops(sp.fn) {
		if c != sp.l && sp.l.Contains(c.Header) {
			sub = append(sub, c)
		}
	}
	var ivs [][2]int64
	for _, e := range sp.coverageElems(sp.fn, inBody, sub, o) {
		blk := e.block
		if e.instr != nil {
			blk = e.instr.Blk
		}
		if domLatches(blk) {
			ivs = append(ivs, [2]int64{e.lo, e.hi})
		}
	}
	for _, b := range sp.fn.Blocks {
		if !inBody(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && domLatches(in.Blk) && sp.calleeFullyWrites(in.Callee, o, size) {
				ivs = append(ivs, [2]int64{0, size})
			}
		}
	}
	return intervalsCover(ivs, size)
}

// regionCanReach reports whether code inside l can (transitively) call
// target, i.e. whether target's body may execute during the region.
func (sp *sepProver) regionCanReach(target *ir.Function) bool {
	seen := map[*ir.Function]bool{}
	var scan func(f *ir.Function) bool
	scan = func(f *ir.Function) bool {
		if f == target {
			return true
		}
		if seen[f] {
			return false
		}
		seen[f] = true
		found := false
		f.Instrs(func(in *ir.Instr) {
			if !found && in.Op == ir.OpCall && scan(in.Callee) {
				found = true
			}
		})
		return found
	}
	for _, b := range sp.l.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && scan(in.Callee) {
				return true
			}
		}
	}
	return false
}

// calleeFullyWrites reports whether every call to f rewrites all of o
// before returning, on every path: coverage elements (or nested such
// calls) dominating every return block must cover [0,size). Recursion is
// not provably full-writing.
func (sp *sepProver) calleeFullyWrites(f *ir.Function, o profiling.Object, size int64) bool {
	memo := sp.fullWr[f]
	if memo == nil {
		memo = map[profiling.Object]int8{}
		sp.fullWr[f] = memo
	}
	switch memo[o] {
	case 1:
		return false
	case 2:
		return true
	}
	memo[o] = 1 // visiting
	dt := sp.dom(f)
	var rets []*ir.Block
	for _, b := range f.Blocks {
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op == ir.OpRet {
			rets = append(rets, b)
		}
	}
	if len(rets) == 0 {
		return false
	}
	domRets := func(b *ir.Block) bool {
		for _, r := range rets {
			if !dt.Dominates(b, r) {
				return false
			}
		}
		return true
	}
	var ivs [][2]int64
	all := func(b *ir.Block) bool { return b.Fn == f }
	for _, e := range sp.coverageElems(f, all, sp.funcLoops(f), o) {
		blk := e.block
		if e.instr != nil {
			blk = e.instr.Blk
		}
		if domRets(blk) {
			ivs = append(ivs, [2]int64{e.lo, e.hi})
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && domRets(in.Blk) && sp.calleeFullyWrites(in.Callee, o, size) {
				ivs = append(ivs, [2]int64{0, size})
			}
		}
	}
	ok := intervalsCover(ivs, size)
	if ok {
		memo[o] = 2
	}
	return ok
}

// mayReadObj reports whether f, or a transitive callee, contains a read
// that may target o.
func (sp *sepProver) mayReadObj(f *ir.Function, o profiling.Object) bool {
	memo := sp.mayRead[f]
	if memo == nil {
		memo = map[profiling.Object]int8{}
		sp.mayRead[f] = memo
	}
	switch memo[o] {
	case 1:
		return false
	case 2:
		return true
	}
	memo[o] = 1 // visiting: cycles resolve to "no" on this path
	found := false
	f.Instrs(func(in *ir.Instr) {
		if found {
			return
		}
		switch in.Op {
		case ir.OpLoad, ir.OpMemCopy:
			if sp.objsOf(in, readAddrOf(in))[o] {
				found = true
			}
		case ir.OpCall:
			if sp.mayReadObj(in.Callee, o) {
				found = true
			}
		}
	})
	if found {
		memo[o] = 2
	}
	return found
}

// selfCovering reports whether f re-initializes all of o before any of
// its own (or its callees') reads of o can execute.
func (sp *sepProver) selfCovering(f *ir.Function, o profiling.Object, size int64) bool {
	memo := sp.selfCov[f]
	if memo == nil {
		memo = map[profiling.Object]int8{}
		sp.selfCov[f] = memo
	}
	switch memo[o] {
	case 1:
		return false
	case 2:
		return true
	}
	memo[o] = 1 // visiting: recursion is not provably covering
	ok := sp.coveredInScope(f, func(b *ir.Block) bool { return b.Fn == f }, sp.funcLoops(f), o, size)
	if ok {
		memo[o] = 2
	}
	return ok
}

// coveredInScope checks the covered-write condition for o over one scope:
// either a whole function body or l's loop body. Scope membership is
// inScope; candidate covering loops are loops. Every read point in scope —
// a direct may-read of o, or a call to a may-read-o callee that is not
// itself self-covering — must be dominated by elements covering [0,size).
func (sp *sepProver) coveredInScope(f *ir.Function, inScope func(*ir.Block) bool, loops []*ir.Loop, o profiling.Object, size int64) bool {
	dt := sp.dom(f)
	elems := sp.coverageElems(f, inScope, loops, o)

	covered := func(r *ir.Instr) bool {
		var ivs [][2]int64
		for _, e := range elems {
			if e.covers(dt, r) {
				ivs = append(ivs, [2]int64{e.lo, e.hi})
			}
		}
		return intervalsCover(ivs, size)
	}

	ok := true
	for _, b := range f.Blocks {
		if !ok || !inScope(b) {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad, ir.OpMemCopy:
				if addr := readAddrOf(in); addr != nil && sp.objsOf(in, addr)[o] && !covered(in) {
					ok = false
				}
			case ir.OpCall:
				if !sp.mayReadObj(in.Callee, o) {
					continue
				}
				if sp.selfCovering(in.Callee, o, size) {
					continue
				}
				if !covered(in) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
	}
	return ok
}

// coverageElems gathers the coverage elements available inside the scope.
func (sp *sepProver) coverageElems(f *ir.Function, inScope func(*ir.Block) bool, loops []*ir.Loop, o profiling.Object) []covElem {
	dt := sp.dom(f)
	var elems []covElem
	// Constant-offset stores and constant memsets.
	for _, b := range f.Blocks {
		if !inScope(b) {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				base, off := peelConstOffset(in.Args[1])
				if bo, ok := sp.baseOf(base); ok && bo == o && in.Size > 0 {
					elems = append(elems, covElem{lo: off, hi: off + in.Size, instr: in})
				}
			case ir.OpMemSet:
				base, off := peelConstOffset(in.Args[0])
				bo, ok := sp.baseOf(base)
				if !ok || bo != o {
					continue
				}
				if c, isC := in.Args[1].(*ir.Instr); isC && c.Op == ir.OpConst && int64(c.Const) > 0 {
					elems = append(elems, covElem{lo: off, hi: off + int64(c.Const), instr: in})
				}
			}
		}
	}
	// Counted covering loops.
	for _, c := range loops {
		if !inScope(c.Header) {
			continue
		}
		iv := ir.FindInductionVar(c)
		if iv == nil {
			continue
		}
		initC, okI := constValue(iv.Init)
		limitC, okL := constValue(iv.Limit)
		if !okI || !okL || initC >= limitC {
			continue
		}
		exit := iv.ExitBlock
		if len(exit.Preds()) != 1 {
			// With multiple predecessors, reaching the exit does not imply
			// the loop ran to completion.
			continue
		}
		// The loop must not read o at all: an in-loop read would need its
		// own per-element ordering argument.
		readsO := false
		for _, cb := range c.Blocks {
			for _, in := range cb.Instrs {
				switch in.Op {
				case ir.OpLoad, ir.OpMemCopy:
					if addr := readAddrOf(in); addr != nil && sp.objsOf(in, addr)[o] {
						readsO = true
					}
				case ir.OpCall:
					if sp.mayReadObj(in.Callee, o) {
						readsO = true
					}
				}
			}
		}
		if readsO {
			continue
		}
		for _, cb := range c.Blocks {
			for _, in := range cb.Instrs {
				if in.Op != ir.OpStore || in.Size <= 0 {
					continue
				}
				aff, ok := DecomposeAffine(c, iv, in.Args[1])
				if !ok || aff.Stride != in.Size {
					continue
				}
				bo, ok := sp.resolveAffineBase(aff.Base)
				if !ok || bo != o {
					continue
				}
				// The store must run every iteration.
				all := true
				for _, latch := range c.Latches {
					if !dt.Dominates(in.Blk, latch) {
						all = false
						break
					}
				}
				if !all {
					continue
				}
				elems = append(elems, covElem{
					lo:    aff.Offset + initC*aff.Stride,
					hi:    aff.Offset + limitC*aff.Stride,
					block: exit,
				})
			}
		}
	}
	return elems
}

// intervalsCover reports whether the union of the intervals contains
// [0,size).
func intervalsCover(ivs [][2]int64, size int64) bool {
	if len(ivs) == 0 {
		return false
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	reach := int64(0)
	for _, iv := range ivs {
		if iv[0] > reach {
			return false
		}
		if iv[1] > reach {
			reach = iv[1]
		}
		if reach >= size {
			return true
		}
	}
	return reach >= size
}

// constValue unwraps an OpConst operand.
func constValue(v ir.Value) (int64, bool) {
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpConst {
		return int64(in.Const), true
	}
	return 0, false
}

// peelConstOffset strips constant add/sub displacements and casts,
// returning the residual base value and the accumulated offset.
func peelConstOffset(v ir.Value) (ir.Value, int64) {
	off := int64(0)
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v, off
		}
		switch in.Op {
		case ir.OpPtrToInt, ir.OpIntToPtr:
			v = in.Args[0]
		case ir.OpAdd:
			if c, isC := constValue(in.Args[1]); isC {
				v, off = in.Args[0], off+c
			} else if c, isC := constValue(in.Args[0]); isC {
				v, off = in.Args[1], off+c
			} else {
				return v, off
			}
		case ir.OpSub:
			if c, isC := constValue(in.Args[1]); isC {
				v, off = in.Args[0], off-c
			} else {
				return v, off
			}
		default:
			return v, off
		}
	}
}

// resolveAffineBase maps an Affine.Base (an *ir.Global after
// canonicalization, or an ir.Value) to the definite object it is the base
// address of.
func (sp *sepProver) resolveAffineBase(base interface{}) (profiling.Object, bool) {
	switch b := base.(type) {
	case *ir.Global:
		return profiling.Object{Global: b}, true
	case ir.Value:
		return sp.baseOf(b)
	}
	return profiling.Object{}, false
}

// baseOf resolves v to the object whose base address v definitely is.
// Unlike points-to (a may-analysis over interior pointers), this is
// must-information: coverage intervals are only sound when computed
// relative to the true base. The walk follows casts, uniform phi/select,
// and parameters whose every call site passes the same base; cycles and
// anything else fail.
func (sp *sepProver) baseOf(v ir.Value) (profiling.Object, bool) {
	if r, ok := sp.baseMemo[v]; ok {
		return r.obj, r.ok
	}
	// Mark in-progress: recursive queries (phi cycles, recursive calls)
	// resolve to failure rather than looping.
	sp.baseMemo[v] = baseResult{}
	obj, ok := sp.baseOfUncached(v)
	sp.baseMemo[v] = baseResult{obj: obj, ok: ok}
	return obj, ok
}

func (sp *sepProver) baseOfUncached(v ir.Value) (profiling.Object, bool) {
	switch val := v.(type) {
	case *ir.Param:
		f := val.Fn
		var got profiling.Object
		found := false
		for _, caller := range f.Mod.SortedFuncs() {
			bad := false
			caller.Instrs(func(in *ir.Instr) {
				if bad || in.Op != ir.OpCall || in.Callee != f || val.Index >= len(in.Args) {
					return
				}
				o, ok := sp.baseOf(in.Args[val.Index])
				if !ok || (found && o != got) {
					bad = true
					return
				}
				got, found = o, true
			})
			if bad {
				return profiling.Object{}, false
			}
		}
		return got, found
	case *ir.Instr:
		switch val.Op {
		case ir.OpGlobal:
			return profiling.Object{Global: val.GlobalRef}, true
		case ir.OpAlloca, ir.OpMalloc, ir.OpHAlloc:
			return profiling.Object{Site: val}, true
		case ir.OpPtrToInt, ir.OpIntToPtr:
			return sp.baseOf(val.Args[0])
		case ir.OpPhi:
			return sp.uniformBase(val.Args)
		case ir.OpSelect:
			return sp.uniformBase(val.Args[1:])
		}
	}
	return profiling.Object{}, false
}

// uniformBase resolves a set of values that must all share one base.
func (sp *sepProver) uniformBase(vals []ir.Value) (profiling.Object, bool) {
	var got profiling.Object
	found := false
	for _, a := range vals {
		o, ok := sp.baseOf(a)
		if !ok || (found && o != got) {
			return profiling.Object{}, false
		}
		got, found = o, true
	}
	return got, found
}

// ---------------------------------------------------------------------------
// RuleRedux

// proveRedux: every region access that may touch o belongs to a reduction
// update as ir.ReduxUpdate defines it — a load consumed by one
// associative-commutative update stored back through the same address
// value — each update's load is itself a region read, and nothing else can
// reach the object.
func (sp *sepProver) proveRedux(o profiling.Object) bool {
	if sp.unknownWrite || sp.unknownRead {
		return false
	}
	// loads holds the load of every region update of o; true once the load
	// was met among the region's reads.
	loads := map[*ir.Instr]bool{}
	for _, w := range sp.writes {
		if !sp.objsOf(w, writeAddrOf(w))[o] {
			continue
		}
		ld, _, _, ok := sp.uses.ReduxUpdate(w)
		if !ok {
			return false
		}
		loads[ld] = false
	}
	for _, r := range sp.reads {
		if !sp.objsOf(r, readAddrOf(r))[o] {
			continue
		}
		if _, isUpdateLoad := loads[r]; !isUpdateLoad {
			return false
		}
		loads[r] = true
	}
	for _, inRegion := range loads {
		if !inRegion {
			return false
		}
	}
	return len(loads) > 0
}
