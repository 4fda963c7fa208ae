package transform

// The postprocess pass runs after check insertion and removes or batches
// dynamic checks the instrumented region no longer needs, mirroring the
// original compiler's Postprocess step and its STATISTIC counters:
//
//   - join (numJoined): runs of per-access privacy checks on adjacent
//     bytes collapse into one span-level mark;
//   - eliminate (numEliminated): a privacy check dominated by an equal or
//     wider check on the same address is dropped;
//   - invariant promotion (numInvPromoted): a loop-invariant check that
//     executes every iteration hoists to the preheader;
//   - dense/sparse promotion (numDensePromoted / numSparsePromoted): a
//     check whose address is affine in a counted loop's induction
//     variable becomes one span mark in the preheader, with the element
//     count computed dynamically (limit - init), so a zero-trip loop
//     degenerates to a runtime no-op;
//   - redundant underlying-object checks (numHeapRedundantUO): a
//     check_heap dominated by a check of the same underlying object and
//     heap is dropped — logical heaps are contiguous address ranges far
//     wider than any object, so one tag test covers every interior
//     pointer derived from the same base.
//
// Soundness rules the pass must never relax:
//
//   - a write check dominated by a READ check is never eliminated: the
//     write transition on a read-live-in byte is the conservative
//     misspeculation detector;
//   - a write mark never moves earlier across a read (or read mark) of
//     potentially-overlapping bytes: marking before the read would hide
//     the read-live-in state the merge relies on;
//   - a write mark is never emitted on a path where the marked bytes
//     might not be written: a spurious write mark makes the merge commit
//     the worker's (stale) copy of those bytes. Read marks may appear on
//     extra paths — the worst case is a false misspeculation, which
//     recovery makes invisible;
//   - nothing moves out of the parallel loop itself: after outlining,
//     code above the loop runs on the master, where privacy hooks are
//     not installed.

import (
	"privateer/internal/analysis"
	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// postprocess runs the elision/promotion pass over every region function.
func (tr *transformer) postprocess() {
	for _, f := range tr.funcs {
		tr.postprocessFunc(f)
	}
}

func (tr *transformer) postprocessFunc(f *ir.Function) {
	f.Recompute()
	dt := ir.BuildDomTree(f)
	loops := ir.FindLoops(f, dt)
	pp := &postpass{tr: tr, f: f, dt: dt, loops: loops,
		loopsOf: map[*ir.Block][]*ir.Loop{}}
	for _, l := range loops {
		for _, b := range l.Blocks {
			pp.loopsOf[b] = append(pp.loopsOf[b], l)
		}
	}
	pp.eliminate()
	pp.join()
	pp.promote()
}

type postpass struct {
	tr      *transformer
	f       *ir.Function
	dt      *ir.DomTree
	loops   []*ir.Loop
	loopsOf map[*ir.Block][]*ir.Loop
}

// parallelLoop returns the parallel loop when f is its host function: the
// one loop checks must never leave.
func (pp *postpass) parallelLoop() *ir.Loop {
	if pp.f != pp.tr.loop.Header.Fn {
		return nil
	}
	for _, l := range pp.loops {
		if l.Header == pp.tr.loop.Header {
			return l
		}
	}
	return nil
}

// sameLoopSet reports whether a and b belong to exactly the same loops.
func (pp *postpass) sameLoopSet(a, b *ir.Block) bool {
	la, lb := pp.loopsOf[a], pp.loopsOf[b]
	if len(la) != len(lb) {
		return false
	}
	for _, l := range la {
		if !l.Contains(b) {
			return false
		}
	}
	return true
}

// loopSubset reports whether every loop containing a also contains b.
// A nil a (parameters, globals) is contained in no loop.
func (pp *postpass) loopSubset(a, b *ir.Block) bool {
	if a == nil {
		return true
	}
	for _, l := range pp.loopsOf[a] {
		if !l.Contains(b) {
			return false
		}
	}
	return true
}

func defBlock(v ir.Value) *ir.Block {
	if in, ok := v.(*ir.Instr); ok {
		return in.Blk
	}
	return nil
}

// ---------------------------------------------------------------------------
// Elimination: dominated privacy checks and redundant-UO heap checks.

type checkSite struct {
	in  *ir.Instr
	idx int // position in its block at collection time
}

// covers reports whether dominator site d makes site c redundant, assuming
// both use the same SSA address (or underlying object) value v. Same-block
// order is always sufficient: one block execution is one dynamic instance
// of every value it uses. Across blocks, d must dominate c from within the
// same set of loops (each entry to their shared innermost loop then
// executes d before c), and v must not be defined in a loop that excludes
// d (its instance would be refreshed without a covering re-check).
func (pp *postpass) covers(d, c checkSite, v ir.Value) bool {
	if d.in.Blk == c.in.Blk {
		return d.idx < c.idx
	}
	return pp.dt.Dominates(d.in.Blk, c.in.Blk) &&
		pp.sameLoopSet(d.in.Blk, c.in.Blk) &&
		pp.loopSubset(defBlock(v), d.in.Blk)
}

func (pp *postpass) eliminate() {
	type privKey struct{ addr ir.Value }
	type heapKey struct {
		uo ir.Value
		h  ir.HeapKind
	}
	priv := map[privKey][]checkSite{}
	heap := map[heapKey][]checkSite{}
	for _, b := range pp.f.Blocks {
		for i, in := range b.Instrs {
			switch in.Op {
			case ir.OpPrivateRead, ir.OpPrivateWrite:
				k := privKey{in.Args[0]}
				priv[k] = append(priv[k], checkSite{in, i})
			case ir.OpCheckHeap:
				k := heapKey{underlyingObject(in.Args[0]), in.Heap}
				heap[k] = append(heap[k], checkSite{in, i})
			}
		}
	}
	dead := map[*ir.Instr]bool{}
	for k, sites := range priv {
		for _, c := range sites {
			for _, d := range sites {
				if d.in == c.in || dead[d.in] || dead[c.in] {
					continue
				}
				// A read never covers a write: the write transition on a
				// read-live-in byte is the conservative misspec detector.
				if d.in.Op == ir.OpPrivateRead && c.in.Op == ir.OpPrivateWrite {
					continue
				}
				if d.in.Size < c.in.Size {
					continue
				}
				if pp.covers(d, c, k.addr) {
					dead[c.in] = true
					pp.tr.stats.Eliminated++
					break
				}
			}
		}
	}
	for k, sites := range heap {
		for _, c := range sites {
			for _, d := range sites {
				if d.in == c.in || dead[d.in] || dead[c.in] {
					continue
				}
				if pp.covers(d, c, k.uo) {
					dead[c.in] = true
					pp.tr.stats.HeapRedundantUO++
					break
				}
			}
		}
	}
	pp.removeDead(dead)
}

func (pp *postpass) removeDead(dead map[*ir.Instr]bool) {
	if len(dead) == 0 {
		return
	}
	for _, b := range pp.f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !dead[in] {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
}

// underlyingObject strips constant-preserving address arithmetic down to
// the base SSA value: the allocation or global whose heap tag every
// derived interior pointer shares. It is the shared analysis.UnderlyingObject
// walk, aliased here for the pass's internal call sites.
func underlyingObject(v ir.Value) ir.Value {
	return analysis.UnderlyingObject(v)
}

// baseOffset peels constant displacements: v == base + offset.
func baseOffset(v ir.Value) (ir.Value, int64) {
	off := int64(0)
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v, off
		}
		switch in.Op {
		case ir.OpAdd:
			if c, isC := constOf(in.Args[1]); isC {
				v, off = in.Args[0], off+c
				continue
			}
			if c, isC := constOf(in.Args[0]); isC {
				v, off = in.Args[1], off+c
				continue
			}
		case ir.OpSub:
			if c, isC := constOf(in.Args[1]); isC {
				v, off = in.Args[0], off-c
				continue
			}
		}
		return v, off
	}
}

func constOf(v ir.Value) (int64, bool) {
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpConst {
		return int64(in.Const), true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Join: adjacent-byte privacy checks collapse into one span mark.

// joinBarrier reports whether in stops a run of privacy checks of the
// given kind from being joined across it. Checkpoint merges happen only at
// iteration boundaries, so moving a mark earlier within a block is
// observable only through the transition rules: a read mark must not cross
// a write (or write mark) to possibly-overlapping bytes — it would record
// read-live-in for a byte the iteration had already written — and a write
// mark must not cross a read (or read mark) — it would hide the
// read-live-in state the merge relies on. Pure writes (store, memset) are
// therefore transparent to write runs, and pure reads (load) to read runs.
func joinBarrier(in *ir.Instr, isWrite bool) bool {
	switch in.Op {
	case ir.OpCall, ir.OpBuiltin, ir.OpPrint, ir.OpMalloc, ir.OpFree,
		ir.OpAlloca, ir.OpHAlloc, ir.OpHDealloc, ir.OpReduxWrite,
		ir.OpMisspec, ir.OpMemCopy: // memcopy both reads and writes
		return true
	case ir.OpStore, ir.OpMemSet, ir.OpPrivateWrite, ir.OpPrivateWriteSpan:
		return !isWrite
	case ir.OpLoad, ir.OpPrivateRead, ir.OpPrivateReadSpan:
		return isWrite
	}
	return false
}

type joinRun struct {
	checks []*ir.Instr
	base   ir.Value
	start  int64 // first byte offset from base
	next   int64 // one past the last covered offset
}

func (pp *postpass) join() {
	for _, b := range pp.f.Blocks {
		pp.joinBlock(b)
	}
}

func (pp *postpass) joinBlock(b *ir.Block) {
	bld := ir.NewBuilder(pp.f)
	bld.SetBlock(b)
	var runs [2]joinRun // 0 = reads, 1 = writes
	dead := map[*ir.Instr]bool{}
	repl := map[*ir.Instr][]*ir.Instr{} // first check -> span sequence

	flush := func(k int) {
		r := &runs[k]
		if len(r.checks) >= 2 {
			op := ir.OpPrivateReadSpan
			if k == 1 {
				op = ir.OpPrivateWriteSpan
			}
			count := makeConst(bld, uint64(r.next-r.start), ir.I64)
			stride := makeConst(bld, 1, ir.I64)
			span := makeSpan(bld, op, r.checks[0].Args[0], count, stride, 1)
			repl[r.checks[0]] = []*ir.Instr{count, stride, span}
			for _, c := range r.checks {
				dead[c] = true
			}
			pp.tr.stats.Joined += len(r.checks) - 1
		}
		r.checks, r.base = nil, nil
	}

	snapshot := append([]*ir.Instr(nil), b.Instrs...)
	for _, in := range snapshot {
		switch in.Op {
		case ir.OpPrivateRead, ir.OpPrivateWrite:
			k := 0
			if in.Op == ir.OpPrivateWrite {
				k = 1
			}
			// A mark of one kind barriers runs of the other kind, exactly
			// as the access it guards would (see joinBarrier).
			flush(1 - k)
			base, off := baseOffset(in.Args[0])
			r := &runs[k]
			if len(r.checks) > 0 && base == r.base && off == r.next {
				r.checks = append(r.checks, in)
				r.next = off + in.Size
			} else {
				flush(k)
				// Runs start at the check's own address so the span can
				// reuse it verbatim (no new address arithmetic).
				r.checks = []*ir.Instr{in}
				r.base, r.start, r.next = base, off, off+in.Size
			}
		default:
			if joinBarrier(in, false) {
				flush(0)
			}
			if joinBarrier(in, true) {
				flush(1)
			}
		}
	}
	flush(0)
	flush(1)

	if len(dead) == 0 {
		return
	}
	out := make([]*ir.Instr, 0, len(b.Instrs))
	for _, in := range b.Instrs {
		if seq, ok := repl[in]; ok {
			for _, s := range seq {
				s.Blk = b
			}
			out = append(out, seq...)
		}
		if !dead[in] {
			out = append(out, in)
		}
	}
	b.Instrs = out
}

// ---------------------------------------------------------------------------
// Promotion: per-iteration checks move to the loop preheader, as an
// invariant single check or as a span covering the loop's whole footprint.

// preheaderOf returns the loop's unique outside predecessor, provided that
// block cannot bypass the loop (its terminator is an unconditional branch
// to the header): code placed there runs exactly when the loop is entered.
func preheaderOf(l *ir.Loop) *ir.Block {
	var ph *ir.Block
	for _, p := range l.Header.Preds() {
		if l.Contains(p) {
			continue
		}
		if ph != nil {
			return nil
		}
		ph = p
	}
	if ph == nil {
		return nil
	}
	t := ph.Terminator()
	if t == nil || t.Op != ir.OpBr || len(t.Targets) != 1 || t.Targets[0] != l.Header {
		return nil
	}
	return ph
}

// singleExitThroughHeader reports whether the only way out of l is the
// header's exit test: then the body runs for every IV value in
// [init, limit) and a span covering that range marks exactly the bytes
// the loop touches.
func singleExitThroughHeader(l *ir.Loop) bool {
	for _, b := range l.Blocks {
		if b == l.Header {
			continue
		}
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				return false
			}
		}
	}
	return true
}

// dominatesAllLatches reports whether blk executes on every trip of l.
func (pp *postpass) dominatesAllLatches(l *ir.Loop, blk *ir.Block) bool {
	for _, latch := range l.Latches {
		if !pp.dt.Dominates(blk, latch) {
			return false
		}
	}
	return true
}

// loopInvariant reports whether v is computed outside l.
func loopInvariant(l *ir.Loop, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return !ok || !l.ContainsInstr(in)
}

// addrObjects resolves a check address to its may-point-to object set.
// Addresses built by this pass (span address arithmetic) postdate the
// points-to analysis, so the query strips derived arithmetic down to the
// underlying base value first — the base shares the objects of every
// interior pointer derived from it.
func (pp *postpass) addrObjects(addr ir.Value) profiling.ObjectSet {
	return pp.tr.pt.ValueObjects(pp.f, underlyingObject(addr))
}

// mayReadPrivateRange reports whether any private read in l could touch
// the bytes a promoted write span would mark. Promoting a write past such
// a read would hide its read-live-in state from the merge.
func (pp *postpass) mayReadPrivateRange(l *ir.Loop, writeAddr ir.Value) bool {
	wObjs := pp.addrObjects(writeAddr)
	if wObjs[analysis.Unknown] {
		return true
	}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPrivateRead && in.Op != ir.OpPrivateReadSpan {
				continue
			}
			rObjs := pp.addrObjects(in.Args[0])
			if rObjs[analysis.Unknown] {
				return true
			}
			for o := range rObjs {
				if wObjs[o] {
					return true
				}
			}
		}
	}
	return false
}

// provablyEntered reports whether l's body executes at least once: a
// canonical IV with constant bounds init < limit.
func provablyEntered(iv *ir.InductionVar) bool {
	if iv == nil {
		return false
	}
	lo, okLo := constOf(iv.Init)
	hi, okHi := constOf(iv.Limit)
	return okLo && okHi && lo < hi
}

func (pp *postpass) promote() {
	par := pp.parallelLoop()
	// Innermost loops first: a check hoisted into a preheader nested in an
	// outer loop is a fresh candidate when the outer loop's turn comes.
	ordered := append([]*ir.Loop(nil), pp.loops...)
	for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
		ordered[i], ordered[j] = ordered[j], ordered[i]
	}
	for _, l := range ordered {
		if l == par {
			continue // never move a check out of the parallel loop itself
		}
		if par != nil && !par.Contains(l.Header) {
			continue // outside the region: nothing instrumented to promote
		}
		pp.promoteLoop(l)
	}
}

func (pp *postpass) promoteLoop(l *ir.Loop) {
	ph := preheaderOf(l)
	if ph == nil {
		return
	}
	iv := ir.FindInductionVar(l)
	singleExit := singleExitThroughHeader(l)
	entered := provablyEntered(iv)

	bld := ir.NewBuilder(pp.f)
	bld.SetBlock(ph)
	dead := map[*ir.Instr]bool{}
	var seq []*ir.Instr // instructions to splice into the preheader

	for _, b := range l.Blocks {
		if pp.childLoopOf(l, b) != nil {
			continue // runs more than once per trip; its own loop handles it
		}
		if !pp.dominatesAllLatches(l, b) {
			continue // conditional: promoting a write mark would be unsound,
			// and promoting a read mark invites needless misspecs
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPrivateRead, ir.OpPrivateWrite:
			case ir.OpPrivateReadSpan, ir.OpPrivateWriteSpan:
				pp.hoistSpan(l, in, entered, singleExit, dead, &seq)
				continue
			case ir.OpCheckHeap:
				// Stateless tag test: safe to hoist whenever invariant.
				if loopInvariant(l, in.Args[0]) {
					dead[in] = true
					seq = append(seq, in)
					pp.tr.stats.InvPromoted++
				}
				continue
			default:
				continue
			}
			isWrite := in.Op == ir.OpPrivateWrite
			if loopInvariant(l, in.Args[0]) {
				// Invariant hoist. A hoisted write mark asserts "this
				// iteration writes these bytes", so the loop must provably
				// run and no in-loop read may see them first.
				if isWrite && (!entered || !singleExit ||
					pp.mayReadPrivateRange(l, in.Args[0])) {
					continue
				}
				dead[in] = true
				seq = append(seq, in)
				pp.tr.stats.InvPromoted++
				continue
			}
			if iv == nil || b == l.Header {
				// The header runs once more than the body (the failing exit
				// test); a span over [init, limit) would drop that last
				// execution's mark.
				continue
			}
			aff, ok := analysis.DecomposeAffine(l, iv, in.Args[0])
			if !ok || aff.Stride <= 0 {
				continue
			}
			if isWrite && (!singleExit || pp.mayReadPrivateRange(l, in.Args[0])) {
				continue
			}
			span := pp.makeAffineSpan(bld, l, iv, aff, in)
			if span == nil {
				continue
			}
			dead[in] = true
			seq = append(seq, span...)
			if aff.Stride == in.Size {
				pp.tr.stats.DensePromoted++
			} else {
				pp.tr.stats.SparsePromoted++
			}
		}
	}
	if len(seq) == 0 {
		return
	}
	pp.removeDead(dead)
	// Splice before the preheader terminator. Hoisted checks keep their
	// identity; freshly built span sequences were emitted detached.
	term := ph.Terminator()
	ti := indexOf(ph.Instrs, term)
	ph.Instrs = append(ph.Instrs[:ti:ti], append(seq, ph.Instrs[ti:]...)...)
	for _, in := range seq {
		in.Blk = ph
	}
}

// hoistSpan moves a span mark that is invariant in l — typically one an
// earlier promotion placed in an inner loop's preheader, which still
// executes once per trip of l — up to l's own preheader, where it runs
// once per entry. Re-marking the same bytes with the same iteration
// timestamp is idempotent, so the hoisted span is exactly the first
// trip's mark, provided the loop provably runs. A write span must also
// not move above in-loop reads of the same bytes (the usual soundness
// rule), and a read span must not move above in-loop writes: a read mark
// landing before a write to the same byte would misspeculate every
// iteration.
func (pp *postpass) hoistSpan(l *ir.Loop, in *ir.Instr, entered, singleExit bool,
	dead map[*ir.Instr]bool, seq *[]*ir.Instr) {
	if !entered || dead[in] {
		return
	}
	if in.Op == ir.OpPrivateWriteSpan {
		if !singleExit || pp.mayReadPrivateRange(l, in.Args[0]) {
			return
		}
	} else if pp.mayWritePrivateRange(l, in.Args[0]) {
		return
	}
	// The span's operands (the address arithmetic and count/stride
	// constants built next to it) move along when they are pure.
	var moved []*ir.Instr
	for _, a := range in.Args {
		if !pp.hoistablePure(l, a, dead, &moved) {
			return
		}
	}
	for _, m := range moved {
		dead[m] = true
		*seq = append(*seq, m)
	}
	dead[in] = true
	*seq = append(*seq, in)
	pp.tr.stats.InvPromoted++
}

// hoistablePure reports whether v is available at l's preheader: already
// invariant, or a side-effect-free computation over hoistable operands.
// Qualifying in-loop instructions are appended to moved in dependency
// order (operands first). planned holds instructions already scheduled to
// move by an earlier hoist from the same loop.
func (pp *postpass) hoistablePure(l *ir.Loop, v ir.Value,
	planned map[*ir.Instr]bool, moved *[]*ir.Instr) bool {
	in, ok := v.(*ir.Instr)
	if !ok || !l.ContainsInstr(in) || planned[in] {
		return true
	}
	for _, m := range *moved {
		if m == in {
			return true
		}
	}
	switch in.Op {
	case ir.OpConst, ir.OpGlobal:
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpPtrToInt, ir.OpIntToPtr:
		// Division and remainder stay put: hoisting could introduce a
		// divide-by-zero trap the loop body never reaches.
		for _, a := range in.Args {
			if !pp.hoistablePure(l, a, planned, moved) {
				return false
			}
		}
	default:
		return false
	}
	*moved = append(*moved, in)
	return true
}

// mayWritePrivateRange reports whether any private write in l could touch
// the bytes a hoisted read span would mark. Hoisting a read mark above
// such a write records read-live-in for bytes the iteration writes,
// misspeculating every iteration.
func (pp *postpass) mayWritePrivateRange(l *ir.Loop, readAddr ir.Value) bool {
	rObjs := pp.addrObjects(readAddr)
	if rObjs[analysis.Unknown] {
		return true
	}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPrivateWrite && in.Op != ir.OpPrivateWriteSpan {
				continue
			}
			wObjs := pp.addrObjects(in.Args[0])
			if wObjs[analysis.Unknown] {
				return true
			}
			for o := range wObjs {
				if rObjs[o] {
					return true
				}
			}
		}
	}
	return false
}

// childLoopOf returns the child loop of l containing b, or nil.
func (pp *postpass) childLoopOf(l *ir.Loop, b *ir.Block) *ir.Loop {
	for _, c := range l.Children {
		if c.Contains(b) {
			return c
		}
	}
	return nil
}

// makeAffineSpan materializes, detached, the preheader computation for a
// span covering check `in` across all iterations of l: count = limit-init
// (non-positive for a zero-trip loop, making the span a runtime no-op),
// start = base + stride*init + offset. Returns nil when the affine base
// cannot be named at the preheader.
func (pp *postpass) makeAffineSpan(bld *ir.Builder, l *ir.Loop, iv *ir.InductionVar,
	aff analysis.Affine, in *ir.Instr) []*ir.Instr {
	var seq []*ir.Instr
	emit := func(x *ir.Instr) *ir.Instr {
		seq = append(seq, detach(bld, x))
		return x
	}

	var base ir.Value
	switch bv := aff.Base.(type) {
	case nil:
		base = nil
	case *ir.Global:
		base = emit(bld.Global(bv))
	case ir.Value:
		if !loopInvariant(l, bv) {
			return nil
		}
		base = bv
	default:
		return nil
	}

	count := emit(bld.Sub(iv.Limit, iv.Init))
	strideC := emit(bld.I(aff.Stride))
	scaled := emit(bld.Mul(iv.Init, strideC))
	var addr ir.Value
	if base != nil {
		addr = emit(bld.Add(base, scaled))
	} else {
		addr = scaled
	}
	if aff.Offset != 0 {
		off := emit(bld.I(aff.Offset))
		addr = emit(bld.Add(addr, off))
	}
	op := ir.OpPrivateReadSpan
	if in.Op == ir.OpPrivateWrite {
		op = ir.OpPrivateWriteSpan
	}
	seq = append(seq, makeSpan(bld, op, addr, count, strideC, in.Size))
	return seq
}

func makeSpan(bld *ir.Builder, op ir.Op, addr, count, stride ir.Value, size int64) *ir.Instr {
	var in *ir.Instr
	if op == ir.OpPrivateReadSpan {
		in = bld.PrivateReadSpan(addr, count, stride, size)
	} else {
		in = bld.PrivateWriteSpan(addr, count, stride, size)
	}
	return detach(bld, in)
}
