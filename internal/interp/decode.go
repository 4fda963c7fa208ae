package interp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"privateer/internal/ir"
)

// This file implements the pre-decoder: it flattens a function's blocks into
// a linear code array that holds only what has to be dispatched. An operand
// is always the value's own frame slot. A constant or global address whose
// every use is certain to execute after it (see hoistable) leaves the code
// array: the constant goes into the function's frame image, which call copies
// into each fresh frame, and the global's slot is patched from the
// interpreter's address table right after that copy. The instruction that
// follows in the block carries the removed ones in its step weight, and
// every entry also records the weight of the block's entries after it, so
// the executor charges a whole block when it enters it and still stores the
// tree-walking executor's exact Interp.Steps at every hook, call, error and
// return. A peephole over each block then fuses the measured hot sequences
// (see fusions). Decoding runs once per function per Program; every
// interpreter sharing the Program (the speculative runtime's master, workers
// and recovery interpreter) executes the same decoded form.
//
// Decoding also proves, once per function, what the executor then takes on
// trust: every slot an entry reads or writes is a slot of the function's
// frame, and control never leaves the code array (see proveInstr and
// unchecked.go). An instruction that fails the proof decodes to a guard
// entry that stops the run with an error naming what failed.

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

// SharedProgram returns a new, empty decode cache for mod (functions decode
// lazily on first call) for the caller to keep and hand to every
// interpreter that should share it: NewShared, specrt.Config.Program. The
// service's concurrent jobs over one module decode each function once this
// way. Two calls return two caches. The module must not be mutated once it
// executes through a shared Program.
func SharedProgram(mod *ir.Module) *Program {
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

// dinstr is one decoded instruction, one 64-byte cache line
// (TestDecodedEntryIsOneCacheLine). Operand fields a, b, c index the frame's
// value array.
type dinstr struct {
	// op is in.Op, or a fused opcode (see fusions) on the first component of
	// a fused sequence; the other components follow in place and are reached
	// only through it.
	op ir.Op
	// n is the number of IR instructions one dispatch of this entry stands
	// for: itself, the hoisted instructions that preceded it in its block
	// and, on a fused opcode, the same for the components after it.
	n   int32
	dst int32
	// a, b, c are the first three operand slots (most ops use at most
	// three; calls and prints read theirs through in.Args).
	a, b, c int32
	// t0, t1 are decoded branch-target pcs for terminators (t0 also serves
	// OpBr; t0/t1 are the true/false targets of OpCondBr). On any other
	// entry t0 is the entry's own pc in its function's code, which a copy in
	// a stop run keeps (see stopRun).
	t0, t1 int32
	// e0, e1 index the function's φ-edge copy lists for the corresponding
	// branch targets; -1 when the target block has no φs.
	e0, e1 int32
	// rest is the summed weight of the entries after this one (after its
	// fused sequence, on a fused opcode) up to its block's first terminator:
	// 0 on a terminator. The executor charges a block its first entry's
	// n + rest on entry, so while this entry runs the exact step count is
	// the charged count less rest.
	rest int32
	// cnst is the literal of an OpConst/OpFConst, the global slot of an
	// OpGlobal that stayed in the code array, the ir.BuiltinIndex of an
	// OpBuiltin and the size (in.Size) of a load, store, alloca or privacy
	// check.
	cnst uint64
	// in is the original instruction, for hooks, errors and wide operand
	// lists.
	in *ir.Instr
}

// charge is the step count of a block whose first entry is d.
func (d *dinstr) charge() int64 { return int64(d.n) + int64(d.rest) }

// globalSlot names a frame slot that holds the address of global idx of the
// interpreter's address table.
type globalSlot struct{ dst, idx int32 }

// phiCopy is one assignment of an edge's parallel φ-copy.
type phiCopy struct{ dst, src int32 }

// phiEdge is the decoded φ behavior of one CFG edge: the parallel copies to
// perform when control transfers along it, or the error that makes the
// transfer invalid.
type phiEdge struct {
	copies []phiCopy
	// guard, when not -1, indexes decodedFunc.guards for what taking the
	// edge fails with: the tree-walking executor's "no incoming for
	// predecessor" error when a φ of the target block has no incoming value
	// for the edge's source block, or the error of an incoming value that is
	// not a value of the function.
	guard int32
}

// decodedFunc is the executable form of one function.
type decodedFunc struct {
	code  []dinstr
	edges []phiEdge
	// image is a fresh frame's value array (length NumValues): the hoisted
	// constants at their own slots, zero everywhere else.
	image []uint64
	// globals are the hoisted OpGlobal slots, patched per interpreter.
	globals []globalSlot
	// guards holds the errors of the guard entries, indexed by their cnst,
	// and of the edges that fail.
	guards []error

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

// Per-value marks of hoistable.
const (
	vDefined = 1 << iota // the walk has passed the value's definition
	vPinned              // some use may execute before the definition
)

// hoistable decides which OpConst, OpFConst and OpGlobal instructions of fn
// may leave the code array for the frame image: those whose mark, indexed by
// ValueID, has vPinned clear. Such a value must be in its slot at every use,
// which holds when every use is certain to execute after the definition — a
// later instruction of the same block, a φ fed along an edge out of the
// defining block, or any use at all when the definition sits in the entry
// block, which runs to its end before another block starts. Any other use
// (only hand-built use-before-def IR has one) may read the slot first, when
// it still holds 0 or an earlier trip's value, so the instruction stays
// where it is. hoistable returns nil, and the function then hoists and fuses
// nothing, when fn is not what ir.Verify admits: an operand of another
// function, a value ID out of range or defined twice, a wrong block
// back-pointer.
func hoistable(fn *ir.Function) []uint8 {
	marks := make([]uint8, fn.NumValues())
	define := func(id int) bool {
		if id < 0 || id >= len(marks) || marks[id]&vDefined != 0 {
			return false
		}
		marks[id] |= vDefined
		return true
	}
	for _, p := range fn.Params {
		if !define(p.ValueID()) {
			return nil
		}
	}
	entry := fn.Entry()
	for _, b := range fn.Blocks {
		phis := leadingPhis(b)
		for i, in := range b.Instrs {
			if in.Blk != b {
				return nil
			}
			for j, a := range in.Args {
				switch v := a.(type) {
				case *ir.Param:
					if v.Fn != fn {
						return nil
					}
				case *ir.Instr:
					if v.Blk == nil || v.Blk.Fn != fn || v.ValueID() < 0 || v.ValueID() >= len(marks) {
						return nil
					}
					after := marks[v.ValueID()]&vDefined != 0 && (v.Blk == b || v.Blk == entry)
					if i < phis {
						after = v.Blk == entry || j < len(in.Preds) && in.Preds[j] == v.Blk
					}
					if !after {
						marks[v.ValueID()] |= vPinned
					}
				default:
					return nil
				}
			}
			if !define(in.ValueID()) {
				return nil
			}
		}
	}
	return marks
}

// Opcodes private to the decoded executor: ir.NumOps, the printer and the
// tree-walking executor do not know them. The fused ones are listed in
// fusions; opGuard is the guard entry that stands for an instruction decode
// could not prove (see proveInstr) or ends a block without a terminator,
// and opStop ends a stop run (see stopRun).
const (
	opMulAdd ir.Op = ir.Op(ir.NumOps) + iota
	opMulAddLoad
	opAddLoad
	opSLtCondBr
	opAddBr
	opMulAddMulAddLoad
	opFMulFAdd
	opGuard
	opStop
)

// fusions lists the fused opcodes with the adjacent sequence each stands
// for, longest match first. One rule keeps a fused sequence observably the
// instructions it replaces: every component still writes its own slot, and
// only the last may fault, fire a hook, touch memory or transfer control, so
// the step count at anything observable is the sum of the weights. The
// sequences are the ones TestDispatchRatio's pair tally ranks highest on the
// paper programs (ARCHITECTURE.md has the shares).
var fusions = []struct {
	op  ir.Op
	seq []ir.Op
}{
	{opMulAddMulAddLoad, []ir.Op{ir.OpMul, ir.OpAdd, ir.OpMul, ir.OpAdd, ir.OpLoad}},
	{opMulAddLoad, []ir.Op{ir.OpMul, ir.OpAdd, ir.OpLoad}},
	{opMulAdd, []ir.Op{ir.OpMul, ir.OpAdd}},
	{opAddLoad, []ir.Op{ir.OpAdd, ir.OpLoad}},
	{opSLtCondBr, []ir.Op{ir.OpSLt, ir.OpCondBr}},
	{opAddBr, []ir.Op{ir.OpAdd, ir.OpBr}},
	{opFMulFAdd, []ir.Op{ir.OpFMul, ir.OpFAdd}},
}

// fuse rewrites one block's decoded run in place: the first component of
// each match takes the fused opcode, the weight of the whole sequence and
// the rest of its last component, the others stay where they are as its
// operand records. Nothing jumps into the middle of a run, so no fusion
// crosses a block start.
func fuse(run []dinstr) {
	for i := 0; i < len(run); {
		k := 1
		for _, f := range fusions {
			if len(f.seq) > len(run)-i {
				continue
			}
			match := true
			for j, op := range f.seq {
				match = match && run[i+j].op == op
			}
			if match {
				k = len(f.seq)
				run[i].op = f.op
				for j := 1; j < k; j++ {
					run[i].n += run[i+j].n
				}
				run[i].rest = run[i+k-1].rest
				break
			}
		}
		i += k
	}
}

// edgeFor builds the φ-copy list for the CFG edge from -> to of fn (edges
// are per branch target, not shared).
func (df *decodedFunc) edgeFor(fn *ir.Function, from, to *ir.Block) int32 {
	n := leadingPhis(to)
	if n == 0 {
		return -1
	}
	e := phiEdge{guard: -1}
	for _, phi := range to.Instrs[:n] {
		var err error
		i := slices.Index(phi.Preds, from)
		switch {
		case i < 0:
			err = phiEdgeError(fn, phi, from)
		case i >= len(phi.Args) || !ownSlot(fn, phi.Args[i]) || !inFrame(fn, phi.ValueID()):
			err = fmt.Errorf("interp: phi %s in %s.%s has no incoming value of %s for predecessor %v",
				phi, fn.Name, to.Name, fn.Name, from)
		default:
			e.copies = append(e.copies, phiCopy{dst: int32(phi.ValueID()), src: int32(phi.Args[i].ValueID())})
			continue
		}
		df.guards = append(df.guards, err)
		e = phiEdge{guard: int32(len(df.guards) - 1)}
		break
	}
	df.edges = append(df.edges, e)
	return int32(len(df.edges) - 1)
}

// inFrame reports whether id is a slot of fn's frame.
func inFrame(fn *ir.Function, id int) bool { return id >= 0 && id < fn.NumValues() }

// ownSlot reports whether v is a value of fn, with a slot in fn's frame.
func ownSlot(fn *ir.Function, v ir.Value) bool {
	switch v := v.(type) {
	case *ir.Param:
		return v.Fn == fn && inFrame(fn, v.ValueID())
	case *ir.Instr:
		return v.Blk != nil && v.Blk.Fn == fn && inFrame(fn, v.ValueID())
	}
	return false
}

// proveInstr returns nil when the entry in decodes to reads and writes only
// slots of fn's frame and branches only to block starts of fn's code: in's
// own value ID lies in [0, NumValues), every operand is a value of fn (so
// its ID does too), in has at least its op's arity of operands (all its case
// reads through a, b and c), and every target its branch takes is a block
// of fn. Otherwise it returns the error of the guard entry that in decodes
// to. ir.Verify admits no module that fails.
func proveInstr(fn *ir.Function, in *ir.Instr, starts map[*ir.Block]int32) error {
	if !inFrame(fn, in.ValueID()) {
		return fmt.Errorf("interp: %s in %s has value ID %d outside its frame of %d",
			in.Op, fn.Name, in.ValueID(), fn.NumValues())
	}
	for i, a := range in.Args {
		if a == nil {
			return fmt.Errorf("interp: %s in %s has no operand %d", in.Op, fn.Name, i)
		}
		if !ownSlot(fn, a) {
			return fmt.Errorf("interp: %s in %s reads %s, which is not a value of %s", in.Op, fn.Name, a, fn.Name)
		}
	}
	if want := in.Op.Arity(); len(in.Args) < want {
		return fmt.Errorf("interp: %s in %s wants %d operands, has %d", in.Op, fn.Name, want, len(in.Args))
	}
	targets := 0
	switch in.Op {
	case ir.OpBr:
		targets = 1
	case ir.OpCondBr:
		targets = 2
	}
	if len(in.Targets) < targets {
		return fmt.Errorf("interp: %s in %s wants %d targets, has %d", in.Op, fn.Name, targets, len(in.Targets))
	}
	for _, t := range in.Targets[:targets] {
		if _, ok := starts[t]; !ok {
			return fmt.Errorf("interp: %s in %s branches to %v, which is not a block of %s", in.Op, fn.Name, t, fn.Name)
		}
	}
	return nil
}

// guard returns a guard entry of weight n that stops the run with err.
func (df *decodedFunc) guard(n int32, err error) dinstr {
	df.guards = append(df.guards, err)
	return dinstr{op: opGuard, n: n, dst: noSlot, a: noSlot, b: noSlot, c: noSlot,
		t0: int32(len(df.code)), e0: -1, e1: -1, cnst: uint64(len(df.guards) - 1)}
}

// decodeFunc flattens fn into its decoded form. A function without blocks,
// or whose entry block leads with a φ, decodes to one guard entry of weight
// 0: entering it fails before it charges a step, as the tree-walking
// executor's does.
func (p *Program) decodeFunc(fn *ir.Function) *decodedFunc {
	df := &decodedFunc{image: make([]uint64, fn.NumValues())}
	df.shapeBlocks, df.shapeInstrs, df.shapeValues = fnShape(fn)
	switch {
	case len(fn.Blocks) == 0:
		df.code = []dinstr{df.guard(0, fmt.Errorf("interp: %s has no blocks", fn.Name))}
		return df
	case leadingPhis(fn.Entry()) > 0:
		df.code = []dinstr{df.guard(0, phiEdgeError(fn, fn.Entry().Instrs[0], nil))}
		return df
	}
	marks := hoistable(fn)
	hoists := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpConst, ir.OpFConst, ir.OpGlobal:
			return marks != nil && marks[in.ValueID()]&vPinned == 0
		}
		return false
	}

	starts := make(map[*ir.Block]int32, len(fn.Blocks))
	pc := int32(0)
	for _, b := range fn.Blocks {
		starts[b] = pc
		for _, in := range b.Instrs[leadingPhis(b):] {
			if !hoists(in) {
				pc++
			}
		}
		if b.Terminator() == nil {
			pc++ // synthetic guard (see below)
		}
	}

	df.code = make([]dinstr, 0, pc)
	for _, b := range fn.Blocks {
		start := len(df.code)
		n := int32(1)
		for _, in := range b.Instrs[leadingPhis(b):] {
			if hoists(in) {
				if in.Op == ir.OpGlobal {
					df.globals = append(df.globals, globalSlot{int32(in.ValueID()), int32(p.globalSlot(in.GlobalRef))})
				} else {
					df.image[in.ValueID()] = in.Const
				}
				n++
				continue
			}
			if err := proveInstr(fn, in, starts); err != nil {
				df.code = append(df.code, df.guard(n, err))
				n = 1
				continue
			}
			di := dinstr{op: in.Op, n: n, dst: int32(in.ValueID()), a: noSlot, b: noSlot, c: noSlot,
				t0: int32(len(df.code)), e0: -1, e1: -1, cnst: in.Const, in: in}
			n = 1
			switch in.Op {
			case ir.OpLoad, ir.OpStore, ir.OpAlloca, ir.OpPrivateRead, ir.OpPrivateWrite,
				ir.OpPrivateReadSpan, ir.OpPrivateWriteSpan:
				di.cnst = uint64(in.Size)
			}
			switch in.Op {
			case ir.OpBr:
				di.t0 = starts[in.Targets[0]]
				di.e0 = df.edgeFor(fn, b, in.Targets[0])
			case ir.OpCondBr:
				di.a = int32(in.Args[0].ValueID())
				di.t0 = starts[in.Targets[0]]
				di.t1 = starts[in.Targets[1]]
				di.e0 = df.edgeFor(fn, b, in.Targets[0])
				di.e1 = df.edgeFor(fn, b, in.Targets[1])
			case ir.OpGlobal:
				di.cnst = uint64(p.globalSlot(in.GlobalRef))
			case ir.OpBuiltin:
				di.cnst = uint64(ir.BuiltinIndex(in.Builtin))
			case ir.OpPhi:
				// A φ below a non-φ instruction: the executor rejects it
				// at runtime.
			default:
				// Pre-resolve up to three operands; wider instructions
				// (calls, prints) read through in.Args.
				if len(in.Args) > 0 {
					di.a = int32(in.Args[0].ValueID())
				}
				if len(in.Args) > 1 {
					di.b = int32(in.Args[1].ValueID())
				}
				if len(in.Args) > 2 {
					di.c = int32(in.Args[2].ValueID())
				}
			}
			df.code = append(df.code, di)
		}
		if b.Terminator() == nil {
			// Unterminated block (invalid IR): stop with an error instead
			// of falling through into the next block's code.
			df.code = append(df.code, df.guard(n, fmt.Errorf("interp: unterminated block in %s", fn.Name)))
		}
		run := df.code[start:]
		for i, rest := len(run)-1, int32(0); i >= 0; i-- {
			if run[i].op.IsTerminator() || run[i].op == opGuard {
				rest = 0 // what follows a terminator or guard never runs
			}
			run[i].rest = rest
			rest += run[i].n
		}
		if marks != nil {
			fuse(run)
		}
	}
	return df
}
