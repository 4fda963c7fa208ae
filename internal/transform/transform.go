// Package transform implements the Privateer privatizing transformation
// (sections 4.4-4.6 of the paper). Given a selected loop, its heap
// assignment and its speculation plan, it rewrites the module in place:
//
//   - allocation sites are re-routed into logical heaps (globals via their
//     heap attribute — the "initializer before main" — and malloc/alloca
//     sites via h_alloc/h_dealloc);
//   - separation checks (check_heap) are inserted at pointer definitions in
//     the parallel region, except where static points-to analysis proves
//     them (those are elided, as in the paper);
//   - privacy checks (private_read/private_write) guard every access to
//     private-heap objects;
//   - reduction updates are marked (redux_write) so the runtime can
//     register reduction objects for identity initialization and merging;
//   - value-prediction checks guard stable loads; and
//   - cold blocks are fenced with misspec for control speculation.
//
// Outline then applies DOALL to the privatized loop (section 3.1: the
// privatized program "is then amenable to … parallelizing transformations
// such as DOALL"). It splits a canonical counted loop into __iter_L(i,
// live-ins...), one iteration of the body, and __region_L(lo, hi,
// live-ins...), a sequential driver calling it, and replaces the loop with
// a call to __region_L. Run sequentially, the program behaves as before;
// the speculative runtime intercepts that call and schedules the
// iterations, so this package schedules nothing. Outline is the step both
// of core's builds share: the DOALL-only baseline (core.ParallelizeStatic)
// outlines a loop static analysis proves DOALL without applying the
// privatizing transformation, and the runtime runs its iterations in order.
// Every name Outline gives is a function of the module alone.
package transform

import (
	"fmt"
	"sort"
	"strings"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// Stats counts what the transformation did, feeding Table 3's "Static
// Allocation Sites" and "Extras" columns.
type Stats struct {
	// GlobalsMoved counts globals re-routed into logical heaps.
	GlobalsMoved int
	// AllocSitesReplaced counts malloc/alloca sites turned into h_alloc.
	AllocSitesReplaced int
	// FreesReplaced counts free sites turned into h_dealloc.
	FreesReplaced int
	// SeparationChecks counts inserted check_heap instructions.
	SeparationChecks int
	// SeparationElided counts checks proved statically and omitted.
	SeparationElided int
	// PrivacyReads and PrivacyWrites count inserted privacy checks.
	PrivacyReads  int // check_priv_read sites
	PrivacyWrites int // check_priv_write sites
	// ReduxMarks counts inserted redux_write markers.
	ReduxMarks int
	// Predicts counts inserted value-prediction checks.
	Predicts int
	// ColdGuards counts blocks fenced by control speculation.
	ColdGuards int
	// SitesPerHeap counts static allocation sites (globals + dynamic
	// sites) per assigned heap.
	SitesPerHeap map[ir.HeapKind]int

	// Postprocess-pass counters; the names mirror the reference
	// compiler's Postprocess.cpp STATISTICs.

	// Joined counts privacy checks folded into an adjacent span
	// (numJoined).
	Joined int
	// Eliminated counts privacy checks removed because a dominating
	// check on the same address covers them (numEliminated).
	Eliminated int
	// InvPromoted counts loop-invariant checks hoisted to a preheader
	// (numInvPromoted).
	InvPromoted int
	// DensePromoted and SparsePromoted count affine per-iteration
	// checks replaced by one preheader span, unit-stride or strided
	// (numDensePromoted / numSparsePromoted).
	DensePromoted  int // unit-stride span promotions
	SparsePromoted int // strided span promotions
	// HeapRedundantUO counts separation checks removed because an
	// earlier check covers the same underlying object
	// (numHeapRedundantUO).
	HeapRedundantUO int

	// Static-separation-prover counters. These are distinct from the
	// elision counters above: an elided check was provably going to pass
	// but the object's classification still rested on the profile; a
	// proven object's classification itself is a compile-time fact, so
	// its whole dynamic mechanism is dropped.

	// StaticProven counts separation checks dropped because every object
	// the address can reference is statically proven for its heap
	// (numStaticProven; compare SeparationElided = numEliminated).
	StaticProven int
	// StaticPrivMarksDropped counts privacy marks dropped on proven
	// covered-write objects (the runtime installs their final ranges
	// wholesale instead of tracking per-access shadow marks).
	StaticPrivMarksDropped int
	// StaticReduxMarksDropped counts redux markers dropped on proven
	// reduction objects (registration is allocation-driven, so merging
	// still happens; only the per-store marker work disappears).
	StaticReduxMarksDropped int
	// ProvenByRule counts the region's statically-proven objects per
	// proof rule.
	ProvenByRule map[analysis.ProofRule]int
}

// SepSummary renders the static-separation counters deterministically.
func (s *Stats) SepSummary() string {
	var rules []string
	for _, r := range analysis.Rules {
		if n := s.ProvenByRule[r]; n > 0 {
			rules = append(rules, fmt.Sprintf("%s=%d", r, n))
		}
	}
	ruleStr := "-"
	if len(rules) > 0 {
		ruleStr = strings.Join(rules, " ")
	}
	return fmt.Sprintf("proven-checks=%d priv-marks-dropped=%d redux-marks-dropped=%d rules: %s",
		s.StaticProven, s.StaticPrivMarksDropped, s.StaticReduxMarksDropped, ruleStr)
}

// SitesSummary renders SitesPerHeap deterministically, in heap-kind
// order (map iteration order would jitter between runs).
func (s *Stats) SitesSummary() string {
	var parts []string
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		if n := s.SitesPerHeap[h]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", h, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// Extras renders the Table 3 "Extras" column.
func (s *Stats) Extras(plan *deps.Plan) string {
	var parts []string
	if plan.NeedsValuePrediction {
		parts = append(parts, "Value")
	}
	if plan.NeedsControlSpec {
		parts = append(parts, "Control")
	}
	if plan.NeedsIODeferral {
		parts = append(parts, "I/O")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// Result describes one transformed parallel region.
type Result struct {
	// Mod is the transformed module (mutated in place).
	Mod *ir.Module
	// Loop is the parallel region.
	Loop *ir.Loop
	// Assignment is the heap assignment in force.
	Assignment *classify.Assignment
	// Plan is the speculation plan in force.
	Plan *deps.Plan
	// Stats summarizes the rewrite.
	Stats *Stats
}

// Options tunes the transformation; the zero value is the production
// shape and only core.ParallelizeAblated passes anything else.
type Options struct {
	// DisableElision inserts every separation check, even those static
	// analysis proves (quantifies the value of check elision).
	DisableElision bool
	// DisablePostprocess skips the elision & promotion pass that runs
	// after check insertion (quantifies its value).
	DisablePostprocess bool
}

// Apply performs the full privatizing transformation for loop l of mod.
// The module's loop structures must be the ones prof and a were computed
// over. Apply returns an error if the plan still has blockers.
func Apply(mod *ir.Module, l *ir.Loop, prof *profiling.Profile,
	a *classify.Assignment, plan *deps.Plan, pt *analysis.PointsTo, opts Options) (*Result, error) {
	if len(plan.Blockers) > 0 {
		return nil, fmt.Errorf("transform: loop %s has %d blockers; first: %s",
			l, len(plan.Blockers), plan.Blockers[0])
	}
	st := &Stats{SitesPerHeap: map[ir.HeapKind]int{}, ProvenByRule: map[analysis.ProofRule]int{}}
	if a.Sep != nil {
		st.ProvenByRule = a.Sep.CountByRule()
	}
	tr := &transformer{mod: mod, loop: l, prof: prof, assign: a, plan: plan, pt: pt, stats: st, opts: opts,
		inFuncs: map[*ir.Function]bool{}}
	var reenters bool
	tr.funcs, reenters = ir.RegionFuncs(l)
	for _, f := range tr.funcs[1:] {
		tr.inFuncs[f] = true
	}
	tr.inFuncs[l.Header.Fn] = reenters
	tr.replaceAllocation()
	tr.insertChecks()
	tr.insertColdGuards()
	if !opts.DisablePostprocess {
		tr.postprocess()
	}
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("transform: broken module: %w", err)
	}
	return &Result{Mod: mod, Loop: l, Assignment: a, Plan: plan, Stats: st}, nil
}

type transformer struct {
	mod    *ir.Module
	loop   *ir.Loop
	prof   *profiling.Profile
	assign *classify.Assignment
	plan   *deps.Plan
	pt     *analysis.PointsTo
	stats  *Stats
	opts   Options

	// funcs is the region's functions (ir.RegionFuncs), computed once; a
	// function is in inFuncs when all of its code runs inside the region.
	funcs   []*ir.Function
	inFuncs map[*ir.Function]bool

	// inserts collects pending instruction insertions per block.
	inserts map[*ir.Block][]insertion
}

type insertion struct {
	before *ir.Instr // anchor
	after  bool      // insert after the anchor instead of before
	instr  *ir.Instr
}

// inRegion reports whether in executes within the parallel region: inside
// the loop body, or anywhere in a function the body can call.
func (tr *transformer) inRegion(in *ir.Instr) bool {
	return tr.inFuncs[in.Blk.Fn] || tr.loop.ContainsInstr(in)
}

// replaceAllocation implements section 4.4.
func (tr *transformer) replaceAllocation() {
	// Globals: attribute assignment; the interpreter's global layout is
	// the pre-main initializer.
	for _, oh := range tr.assign.Objects() {
		tr.stats.SitesPerHeap[oh.Heap]++
		if g := oh.Object.Global; g != nil {
			g.Heap = oh.Heap
			tr.stats.GlobalsMoved++
			continue
		}
		site := oh.Object.Site
		if site == nil {
			continue
		}
		switch site.Op {
		case ir.OpMalloc:
			site.Op = ir.OpHAlloc
			site.Heap = oh.Heap
			tr.stats.AllocSitesReplaced++
		case ir.OpAlloca:
			tr.replaceAlloca(site, oh.Heap)
			tr.stats.AllocSitesReplaced++
		case ir.OpHAlloc:
			site.Heap = oh.Heap // already replaced by an earlier region
		}
	}
	// Frees of rewritten objects become h_dealloc when the target heap is
	// unambiguous.
	for _, f := range tr.mod.SortedFuncs() {
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpFree {
				return
			}
			h, unique := tr.uniqueHeap(in)
			if unique && h != ir.HeapSystem {
				in.Op = ir.OpHDealloc
				in.Heap = h
				tr.stats.FreesReplaced++
			}
		})
	}
}

// replaceAlloca rewrites a stack allocation into h_alloc plus h_dealloc at
// every exit of its function.
func (tr *transformer) replaceAlloca(site *ir.Instr, h ir.HeapKind) {
	f := site.Blk.Fn
	b := ir.NewBuilder(f)
	// Size becomes an explicit constant operand.
	b.SetBlock(site.Blk)
	size := b.I(site.Size)
	// Pull the const out of the block tail and park it right before the
	// site.
	blk := site.Blk
	blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
	idx := indexOf(blk.Instrs, site)
	blk.Instrs = append(blk.Instrs[:idx], append([]*ir.Instr{size}, blk.Instrs[idx:]...)...)
	size.Blk = blk

	site.Op = ir.OpHAlloc
	site.Heap = h
	site.Args = []ir.Value{size}
	site.Size = 0

	// Deallocate at every return.
	for _, blk := range f.Blocks {
		term := blk.Terminator()
		if term == nil || term.Op != ir.OpRet {
			continue
		}
		b.SetBlock(blk)
		// Emit then relocate before the terminator.
		d := b.HDealloc(site, h)
		blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
		ti := indexOf(blk.Instrs, term)
		blk.Instrs = append(blk.Instrs[:ti], append([]*ir.Instr{d}, blk.Instrs[ti:]...)...)
		d.Blk = blk
	}
}

func indexOf(instrs []*ir.Instr, in *ir.Instr) int {
	for i, x := range instrs {
		if x == in {
			return i
		}
	}
	return len(instrs)
}

// uniqueHeap returns the single heap that in's profiled pointer targets
// occupy, if unique.
func (tr *transformer) uniqueHeap(in *ir.Instr) (ir.HeapKind, bool) {
	objs := tr.prof.MapPointerToObjects(in)
	if len(objs) == 0 {
		return ir.HeapSystem, false
	}
	var h ir.HeapKind
	first := true
	for o := range objs {
		oh := tr.assign.HeapOf(o)
		if first {
			h, first = oh, false
		} else if oh != h {
			return ir.HeapSystem, false
		}
	}
	return h, true
}

// staticallySeparated reports whether static analysis alone proves that
// addr (used in function f) only references heap h, allowing the check to
// be elided (section 4.5: "other checks are proved successful at compile
// time"). Elision requires both that the points-to set lands in one heap
// and that the address is computed without dereferencing memory: pointers
// loaded from the heap (linked-structure traversals, published arrays) keep
// their checks, as they do in the paper, where exactly those addresses are
// beyond the static analysis.
func (tr *transformer) staticallySeparated(f *ir.Function, addr ir.Value, h ir.HeapKind) bool {
	if tr.opts.DisableElision {
		return false
	}
	if !loadFreeAddress(addr) {
		return false
	}
	objs := tr.pt.ValueObjects(f, addr)
	if objs[analysis.Unknown] {
		return false
	}
	for o := range objs {
		if tr.assign.HeapOf(o) != h {
			return false
		}
	}
	return len(objs) > 0
}

// provenObjects reports whether addr's points-to set is Unknown-free,
// nonempty, and every object in it satisfies pred. All static-separation
// drops funnel through this: a single opaque target keeps the full
// dynamic machinery.
func (tr *transformer) provenObjects(f *ir.Function, addr ir.Value, pred func(profiling.Object) bool) bool {
	if tr.assign.Sep == nil {
		return false
	}
	objs := tr.pt.ValueObjects(f, addr)
	if objs[analysis.Unknown] || len(objs) == 0 {
		return false
	}
	for o := range objs {
		if !pred(o) {
			return false
		}
	}
	return true
}

// staticProven reports whether the separation check for addr against heap
// h is discharged by the separation prover: every referenceable object is
// assigned to h and carries a proof for h. Unlike staticallySeparated
// (elision), this does not require a load-free address — the points-to
// sets of loaded pointers are still conservative, and the proof covers
// the claim itself, not just the check's outcome.
func (tr *transformer) staticProven(f *ir.Function, addr ir.Value, h ir.HeapKind) bool {
	return tr.provenObjects(f, addr, func(o profiling.Object) bool {
		return tr.assign.HeapOf(o) == h && tr.assign.Sep.ProvenFor(o, h)
	})
}

// privMarksDroppable reports whether privacy marks for an access to addr
// can be dropped: every referenceable object is a statically privatized
// private object — proven covered-write AND fully overwritten every
// iteration, so the runtime can install each interval's final content
// wholesale from the worker that ran the interval's last iteration.
// (Affine-disjoint and merely-covered proofs do NOT qualify — their
// workers still rely on per-byte write marks to merge results.)
func (tr *transformer) privMarksDroppable(f *ir.Function, addr ir.Value) bool {
	return tr.provenObjects(f, addr, func(o profiling.Object) bool {
		return tr.assign.Sep.StaticallyPrivatized(o) && tr.assign.HeapOf(o) == ir.HeapPrivate
	})
}

// reduxMarksDroppable reports whether redux markers for a store to addr
// can be dropped: every referenceable object is a proven reduction.
// Reduction registration (identity init + merge) is allocation-driven,
// so only the per-store marker disappears.
func (tr *transformer) reduxMarksDroppable(f *ir.Function, addr ir.Value) bool {
	return tr.provenObjects(f, addr, func(o profiling.Object) bool {
		return tr.assign.HeapOf(o) == ir.HeapRedux && tr.assign.Sep.ProvenFor(o, ir.HeapRedux)
	})
}

// loadFreeAddress reports whether v is computed from globals, allocation
// results and arithmetic only — no loads, calls or parameters.
func loadFreeAddress(v ir.Value) bool {
	seen := map[*ir.Instr]bool{}
	var walk func(v ir.Value) bool
	walk = func(v ir.Value) bool {
		in, isInstr := v.(*ir.Instr)
		if !isInstr {
			return false // parameters: the callee cannot prove the caller
		}
		if seen[in] {
			return true
		}
		seen[in] = true
		switch in.Op {
		case ir.OpGlobal, ir.OpConst, ir.OpAlloca, ir.OpMalloc, ir.OpHAlloc:
			return true
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpAnd, ir.OpOr,
			ir.OpXor, ir.OpLShr, ir.OpAShr, ir.OpSRem, ir.OpSDiv,
			ir.OpPtrToInt, ir.OpIntToPtr, ir.OpSelect, ir.OpPhi:
			for _, a := range in.Args {
				if !walk(a) {
					return false
				}
			}
			return true
		default:
			return false // loads, calls: opaque to the static analysis
		}
	}
	return walk(v)
}

func (tr *transformer) queueInsert(anchor *ir.Instr, after bool, in *ir.Instr) {
	if tr.inserts == nil {
		tr.inserts = map[*ir.Block][]insertion{}
	}
	in.Blk = anchor.Blk
	tr.inserts[anchor.Blk] = append(tr.inserts[anchor.Blk], insertion{anchor, after, in})
}

func (tr *transformer) flushInserts() {
	for blk, ins := range tr.inserts {
		out := make([]*ir.Instr, 0, len(blk.Instrs)+len(ins))
		for _, cur := range blk.Instrs {
			for _, q := range ins {
				if q.before == cur && !q.after {
					out = append(out, q.instr)
				}
			}
			out = append(out, cur)
			for _, q := range ins {
				if q.before == cur && q.after {
					out = append(out, q.instr)
				}
			}
		}
		blk.Instrs = out
	}
	tr.inserts = nil
}

// insertChecks implements sections 4.5 and 4.6 plus value prediction.
func (tr *transformer) insertChecks() {
	// The IR changes only at flushInserts below, so one use index serves
	// every reduction query of the pass.
	uses := ir.UseIndex{}
	// One separation check per (pointer definition, heap): the paper
	// traces each use back to its static definition and checks there.
	type checkKey struct {
		val ir.Value
		h   ir.HeapKind
	}
	checked := map[checkKey]bool{}
	newInstr := func(f *ir.Function) *ir.Builder { return ir.NewBuilder(f) }

	for _, f := range tr.funcs {
		bld := newInstr(f)
		f.Instrs(func(in *ir.Instr) {
			if !tr.inRegion(in) {
				return
			}
			var addr ir.Value
			var size int64
			isWrite := false
			switch in.Op {
			case ir.OpLoad:
				addr, size = in.Args[0], in.Size
			case ir.OpStore:
				addr, size, isWrite = in.Args[1], in.Size, true
			case ir.OpMemSet:
				addr, size, isWrite = in.Args[0], 8, true
			case ir.OpHDealloc, ir.OpFree:
				addr, size = in.Args[0], 0
			default:
				return
			}
			h, unique := tr.uniqueHeap(in)
			if !unique {
				return // never profiled, or spans heaps: no single tag to check
			}
			// Separation check at the pointer definition.
			key := checkKey{addr, h}
			if !checked[key] {
				checked[key] = true
				if tr.staticProven(f, addr, h) {
					tr.stats.StaticProven++
				} else if tr.staticallySeparated(f, addr, h) {
					tr.stats.SeparationElided++
				} else {
					chk := makeCheck(bld, addr, h)
					if def, isInstr := addr.(*ir.Instr); isInstr && def.Blk.Fn == f {
						tr.queueInsert(def, true, chk)
					} else {
						tr.queueInsert(in, false, chk)
					}
					tr.stats.SeparationChecks++
				}
			}
			// Privacy checks on private-heap accesses. Value-predicted
			// loads are exempt: their result is validated against the
			// predicted constant (section 6.1's dijkstra queue pattern),
			// so they do not count as reads of earlier iterations' values
			// and must not mark shadow bytes read-live-in.
			if _, predicted := tr.assign.PredictableLoads[in]; predicted {
				return
			}
			if h == ir.HeapPrivate && size > 0 {
				if tr.privMarksDroppable(f, addr) {
					tr.stats.StaticPrivMarksDropped++
				} else if in.Op == ir.OpMemSet {
					// A memset covers Args[1] bytes, not one fixed-size
					// word: mark the whole span (a fixed-width check here
					// would leave the tail bytes unwatched).
					one := makeConst(bld, 1, ir.I64)
					span := makeSpan(bld, ir.OpPrivateWriteSpan, addr, in.Args[1], one, 1)
					tr.queueInsert(in, false, one)
					tr.queueInsert(in, false, span)
					tr.stats.PrivacyWrites++
				} else if isWrite {
					pw := makePriv(bld, ir.OpPrivateWrite, addr, size)
					tr.queueInsert(in, false, pw)
					tr.stats.PrivacyWrites++
				} else {
					pr := makePriv(bld, ir.OpPrivateRead, addr, size)
					tr.queueInsert(in, false, pr)
					tr.stats.PrivacyReads++
				}
			}
			// Reduction markers on redux-heap stores.
			if h == ir.HeapRedux && isWrite {
				if tr.reduxMarksDroppable(f, addr) {
					tr.stats.StaticReduxMarksDropped++
				} else {
					_, kind, _, _ := uses.ReduxUpdate(in)
					rw := makeRedux(bld, addr, size, kind)
					tr.queueInsert(in, false, rw)
					tr.stats.ReduxMarks++
				}
			}
		})
	}
	tr.flushInserts()
	// Value prediction (the paper's queue-empty speculation): for each
	// predicted location, the start of every iteration validates that the
	// previous iteration left the predicted constant there (an untracked
	// validation load + predict) and re-establishes it with a tracked
	// store. In-body loads then read a same-iteration value, so privacy
	// validation accepts them, and the carried dependence is gone.
	if tr.plan.NeedsValuePrediction {
		tr.insertPredictions()
	}
}

// insertPredictions emits, at the top of the loop's body entry block (after
// phis), one validate-and-reestablish sequence per predicted location.
func (tr *transformer) insertPredictions() {
	iv := ir.FindInductionVar(tr.loop)
	if iv == nil {
		return
	}
	entry := iv.BodyEntry
	f := entry.Fn
	bld := ir.NewBuilder(f)
	bld.SetBlock(entry)
	var seq []*ir.Instr
	emit := func(in *ir.Instr) *ir.Instr {
		seq = append(seq, detach(bld, in))
		return in
	}
	for _, p := range tr.assign.Predictions {
		g := emit(bld.Global(p.Global))
		addr := ir.Value(g)
		if p.Offset != 0 {
			off := emit(bld.I(int64(p.Offset)))
			addr = emit(bld.Add(g, off))
		}
		// Validation load: deliberately NOT privacy-checked — it verifies
		// the previous iteration's final value rather than consuming it.
		var ld *ir.Instr
		if p.Typ == ir.F64 {
			ld = emit(bld.LoadF(addr))
		} else {
			ld = emit(bld.Load(addr, p.Size))
		}
		c := emit(makeIntConst(bld, p.Value, p.Typ))
		emit(bld.Predict(ld, c))
		// Re-establish the value with a tracked store. Storing the loaded
		// value back is semantics-neutral even when checks are disabled
		// (recovery); under speculation the predict above guarantees it
		// equals the constant.
		if p.Global.Heap == ir.HeapPrivate {
			emit(bld.PrivateWrite(addr, p.Size))
			tr.stats.PrivacyWrites++
		}
		emit(bld.Store(ld, addr, p.Size))
		tr.stats.Predicts++
	}
	// Splice after any phis at the top of the body entry.
	n := 0
	for n < len(entry.Instrs) && entry.Instrs[n].Op == ir.OpPhi {
		n++
	}
	rest := append([]*ir.Instr(nil), entry.Instrs[n:]...)
	entry.Instrs = append(entry.Instrs[:n], append(seq, rest...)...)
	for _, in := range seq {
		in.Blk = entry
	}
}

func makeIntConst(bld *ir.Builder, v uint64, t ir.Type) *ir.Instr {
	if t == ir.Ptr {
		return bld.P(v)
	}
	return bld.I(int64(v))
}

// insertColdGuards fences never-executed blocks with misspec (control
// speculation).
func (tr *transformer) insertColdGuards() {
	blocks := append([]*ir.Block(nil), tr.plan.ColdBlocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Name < blocks[j].Name })
	for _, blk := range blocks {
		bld := ir.NewBuilder(blk.Fn)
		bld.SetBlock(blk)
		g := makeMisspec(bld)
		// Place after any phis, before everything else.
		n := 0
		for n < len(blk.Instrs) && blk.Instrs[n].Op == ir.OpPhi {
			n++
		}
		blk.Instrs = append(blk.Instrs[:n:n], append([]*ir.Instr{g}, blk.Instrs[n:]...)...)
		g.Blk = blk
		tr.stats.ColdGuards++
	}
}

// The make* helpers emit an instruction with the builder (to get fresh IDs)
// and immediately detach it from the builder's block so the caller can
// place it explicitly.
func detach(bld *ir.Builder, in *ir.Instr) *ir.Instr {
	blk := bld.B
	blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
	return in
}

func makeCheck(bld *ir.Builder, addr ir.Value, h ir.HeapKind) *ir.Instr {
	return detach(bld, bld.CheckHeap(addr, h))
}

func makePriv(bld *ir.Builder, op ir.Op, addr ir.Value, size int64) *ir.Instr {
	var in *ir.Instr
	if op == ir.OpPrivateRead {
		in = bld.PrivateRead(addr, size)
	} else {
		in = bld.PrivateWrite(addr, size)
	}
	return detach(bld, in)
}

func makeRedux(bld *ir.Builder, addr ir.Value, size int64, k ir.ReduxKind) *ir.Instr {
	return detach(bld, bld.ReduxWrite(addr, size, k))
}

func makeConst(bld *ir.Builder, v uint64, t ir.Type) *ir.Instr {
	var c *ir.Instr
	if t == ir.Ptr {
		c = bld.P(v)
	} else {
		c = bld.I(int64(v))
	}
	return detach(bld, c)
}

func makeMisspec(bld *ir.Builder) *ir.Instr {
	return detach(bld, bld.Misspec())
}
