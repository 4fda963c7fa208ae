package interp

import (
	"math"
	"sync"

	"privateer/internal/ir"
)

// This file implements the pre-decoder: it flattens a function's blocks into
// a linear code array whose instructions carry pre-resolved operand value
// slots (small integers indexing the frame's value array), constants folded
// into an operand pool, and pre-computed branch targets and φ-edge parallel
// copies. Decoding runs once per function per Program; every interpreter
// sharing the Program (the speculative runtime's master, workers and
// recovery interpreter) executes the same decoded form.

// noSlot marks an absent operand slot (e.g. a void return).
const noSlot = math.MinInt32

// Program is the shared decoded form of one module. All interpreters
// constructed over the same Program reuse its per-function decode cache, so
// parallel workers pay the decode cost once instead of re-deriving operand
// walks every instruction.
type Program struct {
	// Mod is the module this program decodes.
	Mod *ir.Module

	funcs sync.Map // *ir.Function -> *decodedFunc
	// globalIdx numbers the module's globals in declaration order.
	globalIdx map[*ir.Global]int
}

// NewProgram returns an empty decode cache for mod. Functions decode lazily
// on first call.
func NewProgram(mod *ir.Module) *Program {
	p := &Program{Mod: mod, globalIdx: make(map[*ir.Global]int, len(mod.Globals))}
	for i, name := range mod.GlobalNames() {
		p.globalIdx[mod.Globals[name]] = i
	}
	return p
}

// globalSlot returns g's index in the address table of every interpreter
// over p, resolved here once so the decoded OpGlobal is a slice load. A
// global the module did not declare gets the spare last slot, which nothing
// lays out: its address reads 0.
func (p *Program) globalSlot(g *ir.Global) int {
	if i, ok := p.globalIdx[g]; ok {
		return i
	}
	return len(p.globalIdx)
}

// progCache is the process-wide module->Program table behind SharedProgram.
var progCache sync.Map // *ir.Module -> *Program

// SharedProgram returns the process-wide decoded Program for mod, creating
// it on first use. Concurrent region invocations over the same module (the
// multi-tenant service's steady state) share one decode cache this way, so
// each function decodes once per process rather than once per invocation.
// The module must not be mutated once it is executing through a shared
// Program; compile-time passes run before the first invocation.
func SharedProgram(mod *ir.Module) *Program {
	if v, ok := progCache.Load(mod); ok {
		return v.(*Program)
	}
	v, _ := progCache.LoadOrStore(mod, NewProgram(mod))
	return v.(*Program)
}

// decodedFor returns the decoded form of fn, decoding (or re-decoding after
// IR mutation) as needed. Concurrent first calls may race to decode the same
// function; LoadOrStore makes them converge on a single decoded object, so
// interpreters sharing the Program never observe two forms of one function.
func (p *Program) decodedFor(fn *ir.Function) *decodedFunc {
	if v, ok := p.funcs.Load(fn); ok {
		df := v.(*decodedFunc)
		if df.shapeMatches(fn) {
			return df
		}
		// The IR changed shape since the cached decode (a mutation pass ran
		// between invocations): replace the stale entry.
		df = p.decodeFunc(fn)
		p.funcs.Store(fn, df)
		return df
	}
	df := p.decodeFunc(fn)
	if v, raced := p.funcs.LoadOrStore(fn, df); raced {
		if cached := v.(*decodedFunc); cached.shapeMatches(fn) {
			return cached
		}
	}
	return df
}

// dinstr is one decoded instruction. Operand fields a, b, c index the
// frame's value array when non-negative; a negative operand ^i names entry i
// of the function's constant pool (a constant folded at decode time).
type dinstr struct {
	op  ir.Op
	dst int32
	// a, b, c are the first three operand slots (most ops use at most
	// three; wider ops read through in.Args on the fallback path).
	a, b, c int32
	// t0, t1 are decoded branch-target pcs for terminators (t0 also serves
	// OpBr; t0/t1 are the true/false targets of OpCondBr).
	t0, t1 int32
	// e0, e1 index the function's φ-edge copy lists for the corresponding
	// branch targets; -1 when the target block has no φs.
	e0, e1 int32
	// size is the access width (loads, stores, checks) or alloca size.
	size int64
	// cnst is the literal of OpConst/OpFConst and the global slot of OpGlobal.
	cnst uint64
	// in is the original instruction, for hooks, errors and wide operand
	// lists.
	in *ir.Instr
}

// phiCopy is one assignment of an edge's parallel φ-copy.
type phiCopy struct{ dst, src int32 }

// phiEdge is the decoded φ behavior of one CFG edge: the parallel copies to
// perform when control transfers along it, or the φ that makes the transfer
// invalid (no incoming value for the edge's source block).
type phiEdge struct {
	copies []phiCopy
	// badPhi, when non-nil, is the first φ of the target block with no
	// incoming value for this edge; taking the edge reproduces the
	// interpreter's "no incoming for predecessor" error.
	badPhi *ir.Instr
}

// decodedFunc is the executable form of one function.
type decodedFunc struct {
	fn    *ir.Function
	code  []dinstr
	edges []phiEdge
	pool  []uint64
	// frameSize is NumValues plus the pool length: frames for decoded
	// execution append the folded constants to the tail of the value array,
	// so an operand read is a single index with no slot-vs-pool branch.
	frameSize int
	// entryPhi is the first leading φ of the entry block, if any; entering
	// the function then fails exactly as the tree-walking executor does.
	entryPhi *ir.Instr

	// Shape fingerprint: decoding is invalidated if the function's block
	// count, instruction count or value-ID horizon changes (every IR
	// mutation pass alters at least one of these).
	shapeBlocks int
	shapeInstrs int
	shapeValues int
}

func fnShape(fn *ir.Function) (blocks, instrs, values int) {
	blocks = len(fn.Blocks)
	for _, b := range fn.Blocks {
		instrs += len(b.Instrs)
	}
	return blocks, instrs, fn.NumValues()
}

func (df *decodedFunc) shapeMatches(fn *ir.Function) bool {
	b, i, v := fnShape(fn)
	return df.shapeBlocks == b && df.shapeInstrs == i && df.shapeValues == v
}

// leadingPhis counts the φ instructions at the head of b (the only ones the
// executor treats as φs, matching the tree-walking executor).
func leadingPhis(b *ir.Block) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		n++
	}
	return n
}

// decoder carries per-function decode state.
type decoder struct {
	df *decodedFunc
	// poolIdx dedupes folded constants by value.
	poolIdx map[uint64]int32
	// blockConsts maps constants defined earlier in the current block to
	// their instructions; only those fold (a constant's slot is written when
	// the constant executes, so folding across blocks could change the
	// behavior of use-before-def programs the verifier does not reject).
	blockConsts map[*ir.Instr]bool
}

// slotOf resolves operand v to a frame slot or, for a constant already
// defined in the current block, a folded pool reference.
func (d *decoder) slotOf(v ir.Value) int32 {
	if in, ok := v.(*ir.Instr); ok && d.blockConsts[in] {
		idx, have := d.poolIdx[in.Const]
		if !have {
			idx = int32(len(d.df.pool))
			d.df.pool = append(d.df.pool, in.Const)
			d.poolIdx[in.Const] = idx
		}
		return ^idx
	}
	return int32(v.ValueID())
}

// edgeFor builds (or reuses nothing — edges are per branch-target) the
// φ-copy list for the CFG edge from -> to.
func (d *decoder) edgeFor(from, to *ir.Block) int32 {
	n := leadingPhis(to)
	if n == 0 {
		return -1
	}
	e := phiEdge{}
	for _, phi := range to.Instrs[:n] {
		src := int32(0)
		found := false
		for i, p := range phi.Preds {
			if p == from {
				src = d.slotOf(phi.Args[i])
				found = true
				break
			}
		}
		if !found {
			e.badPhi = phi
			break
		}
		e.copies = append(e.copies, phiCopy{dst: int32(phi.ValueID()), src: src})
	}
	d.df.edges = append(d.df.edges, e)
	return int32(len(d.df.edges) - 1)
}

// decodeFunc flattens fn into its decoded form.
func (p *Program) decodeFunc(fn *ir.Function) *decodedFunc {
	df := &decodedFunc{fn: fn}
	df.shapeBlocks, df.shapeInstrs, df.shapeValues = fnShape(fn)

	starts := make(map[*ir.Block]int32, len(fn.Blocks))
	pc := int32(0)
	for _, b := range fn.Blocks {
		starts[b] = pc
		pc += int32(len(b.Instrs) - leadingPhis(b))
		if b.Terminator() == nil {
			pc++ // synthetic guard (see below)
		}
	}
	if len(fn.Blocks) > 0 && leadingPhis(fn.Entry()) > 0 {
		df.entryPhi = fn.Entry().Instrs[0]
	}

	d := &decoder{df: df, poolIdx: map[uint64]int32{}}
	df.code = make([]dinstr, 0, pc)
	for _, b := range fn.Blocks {
		d.blockConsts = map[*ir.Instr]bool{}
		for _, in := range b.Instrs[leadingPhis(b):] {
			di := dinstr{op: in.Op, dst: int32(in.ValueID()), a: noSlot, b: noSlot, c: noSlot,
				e0: -1, e1: -1, size: in.Size, cnst: in.Const, in: in}
			switch in.Op {
			case ir.OpBr:
				di.t0 = starts[in.Targets[0]]
				di.e0 = d.edgeFor(b, in.Targets[0])
			case ir.OpCondBr:
				di.a = d.slotOf(in.Args[0])
				di.t0 = starts[in.Targets[0]]
				di.t1 = starts[in.Targets[1]]
				di.e0 = d.edgeFor(b, in.Targets[0])
				di.e1 = d.edgeFor(b, in.Targets[1])
			case ir.OpRet:
				if len(in.Args) == 1 {
					di.a = d.slotOf(in.Args[0])
				}
			case ir.OpGlobal:
				di.cnst = uint64(p.globalSlot(in.GlobalRef))
			case ir.OpPhi:
				// A φ below a non-φ instruction: the executor rejects it
				// at runtime via the fallback path.
			default:
				// Pre-resolve up to three operands; wider instructions
				// (calls, prints, memset/memcopy) read through in.Args.
				if len(in.Args) > 0 {
					di.a = d.slotOf(in.Args[0])
				}
				if len(in.Args) > 1 {
					di.b = d.slotOf(in.Args[1])
				}
				if len(in.Args) > 2 {
					di.c = d.slotOf(in.Args[2])
				}
			}
			df.code = append(df.code, di)
			if in.Op == ir.OpConst || in.Op == ir.OpFConst {
				d.blockConsts[in] = true
			}
		}
		if b.Terminator() == nil {
			// Unterminated block (invalid IR): stop with an error instead
			// of falling through into the next block's code.
			df.code = append(df.code, dinstr{op: ir.OpInvalid, dst: noSlot,
				a: noSlot, b: noSlot, c: noSlot, e0: -1, e1: -1})
		}
	}

	// Rebase folded-constant references: the executor's frames carry the
	// pool in the tail of the value array (vals[NumValues:]), so pool entry
	// i lives at slot NumValues+i and operand reads need no pool branch.
	nv := int32(fn.NumValues())
	rebase := func(s int32) int32 {
		if s < 0 && s != noSlot {
			return nv + ^s
		}
		return s
	}
	for i := range df.code {
		di := &df.code[i]
		di.a, di.b, di.c = rebase(di.a), rebase(di.b), rebase(di.c)
	}
	for i := range df.edges {
		for j := range df.edges[i].copies {
			df.edges[i].copies[j].src = rebase(df.edges[i].copies[j].src)
		}
	}
	df.frameSize = fn.NumValues() + len(df.pool)
	return df
}
