package ir

import "math"

// Builder constructs IR with a current-insertion-point model, plus
// structured-control-flow helpers (If, While, For) so benchmark programs can
// be written in a C-like embedded style. The helpers emit scalar locals as
// allocas, exactly as an unoptimized front end would; PromoteAllocas later
// rewrites them into SSA registers.
type Builder struct {
	// F is the function under construction.
	F *Function
	// B is the current insertion block.
	B *Block

	blockSeq int
}

// NewBuilder returns a builder positioned at f's entry block.
func NewBuilder(f *Function) *Builder {
	return &Builder{F: f, B: f.Entry()}
}

// SetBlock moves the insertion point to b.
func (bd *Builder) SetBlock(b *Block) { bd.B = b }

// NewBlock creates a fresh block with a unique name derived from prefix.
func (bd *Builder) NewBlock(prefix string) *Block {
	bd.blockSeq++
	return bd.F.NewBlock(prefix + "." + itoa(bd.blockSeq))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// emit appends in to the current block and returns it.
func (bd *Builder) emit(in *Instr) *Instr {
	in.Blk = bd.B
	bd.B.Instrs = append(bd.B.Instrs, in)
	return in
}

// I emits a 64-bit integer constant.
func (bd *Builder) I(v int64) *Instr {
	in := bd.F.newInstr(OpConst, I64)
	in.Const = uint64(v)
	return bd.emit(in)
}

// P emits a pointer constant (normally only 0, the null pointer).
func (bd *Builder) P(v uint64) *Instr {
	in := bd.F.newInstr(OpConst, Ptr)
	in.Const = v
	return bd.emit(in)
}

// Flt emits a float constant.
func (bd *Builder) Flt(v float64) *Instr {
	in := bd.F.newInstr(OpFConst, F64)
	in.Const = math.Float64bits(v)
	return bd.emit(in)
}

func (bd *Builder) bin(op Op, t Type, a, b Value) *Instr {
	return bd.emit(bd.F.newInstr(op, t, a, b))
}

// Integer arithmetic. The result adopts Ptr if either operand is a pointer,
// matching C pointer arithmetic after lowering.
func (bd *Builder) intType(a, b Value) Type {
	if a.Type() == Ptr || b.Type() == Ptr {
		return Ptr
	}
	return I64
}

// Add emits integer/pointer addition.
func (bd *Builder) Add(a, b Value) *Instr { return bd.bin(OpAdd, bd.intType(a, b), a, b) }

// Sub emits integer/pointer subtraction.
func (bd *Builder) Sub(a, b Value) *Instr { return bd.bin(OpSub, bd.intType(a, b), a, b) }

// Mul emits integer multiplication.
func (bd *Builder) Mul(a, b Value) *Instr { return bd.bin(OpMul, I64, a, b) }

// SDiv emits signed division.
func (bd *Builder) SDiv(a, b Value) *Instr { return bd.bin(OpSDiv, I64, a, b) }

// UDiv emits unsigned division.
func (bd *Builder) UDiv(a, b Value) *Instr { return bd.bin(OpUDiv, I64, a, b) }

// SRem emits signed remainder.
func (bd *Builder) SRem(a, b Value) *Instr { return bd.bin(OpSRem, I64, a, b) }

// URem emits unsigned remainder.
func (bd *Builder) URem(a, b Value) *Instr { return bd.bin(OpURem, I64, a, b) }

// And emits bitwise AND.
func (bd *Builder) And(a, b Value) *Instr { return bd.bin(OpAnd, I64, a, b) }

// Or emits bitwise OR.
func (bd *Builder) Or(a, b Value) *Instr { return bd.bin(OpOr, I64, a, b) }

// Xor emits bitwise XOR.
func (bd *Builder) Xor(a, b Value) *Instr { return bd.bin(OpXor, I64, a, b) }

// Shl emits a left shift.
func (bd *Builder) Shl(a, b Value) *Instr { return bd.bin(OpShl, I64, a, b) }

// LShr emits a logical right shift.
func (bd *Builder) LShr(a, b Value) *Instr { return bd.bin(OpLShr, I64, a, b) }

// AShr emits an arithmetic right shift.
func (bd *Builder) AShr(a, b Value) *Instr { return bd.bin(OpAShr, I64, a, b) }

// Comparisons (result is i64 0/1).

// Eq emits an equality comparison.
func (bd *Builder) Eq(a, b Value) *Instr { return bd.bin(OpEq, I64, a, b) }

// Ne emits an inequality comparison.
func (bd *Builder) Ne(a, b Value) *Instr { return bd.bin(OpNe, I64, a, b) }

// SLt emits signed less-than.
func (bd *Builder) SLt(a, b Value) *Instr { return bd.bin(OpSLt, I64, a, b) }

// SLe emits signed less-or-equal.
func (bd *Builder) SLe(a, b Value) *Instr { return bd.bin(OpSLe, I64, a, b) }

// SGt emits signed greater-than.
func (bd *Builder) SGt(a, b Value) *Instr { return bd.bin(OpSGt, I64, a, b) }

// SGe emits signed greater-or-equal.
func (bd *Builder) SGe(a, b Value) *Instr { return bd.bin(OpSGe, I64, a, b) }

// ULt emits unsigned less-than.
func (bd *Builder) ULt(a, b Value) *Instr { return bd.bin(OpULt, I64, a, b) }

// UGe emits unsigned greater-or-equal.
func (bd *Builder) UGe(a, b Value) *Instr { return bd.bin(OpUGe, I64, a, b) }

// Float arithmetic.

// FAdd emits float addition.
func (bd *Builder) FAdd(a, b Value) *Instr { return bd.bin(OpFAdd, F64, a, b) }

// FSub emits float subtraction.
func (bd *Builder) FSub(a, b Value) *Instr { return bd.bin(OpFSub, F64, a, b) }

// FMul emits float multiplication.
func (bd *Builder) FMul(a, b Value) *Instr { return bd.bin(OpFMul, F64, a, b) }

// FDiv emits float division.
func (bd *Builder) FDiv(a, b Value) *Instr { return bd.bin(OpFDiv, F64, a, b) }

// FLt emits float less-than.
func (bd *Builder) FLt(a, b Value) *Instr { return bd.bin(OpFLt, I64, a, b) }

// FLe emits float less-or-equal.
func (bd *Builder) FLe(a, b Value) *Instr { return bd.bin(OpFLe, I64, a, b) }

// FGt emits float greater-than.
func (bd *Builder) FGt(a, b Value) *Instr { return bd.bin(OpFGt, I64, a, b) }

// FGe emits float greater-or-equal.
func (bd *Builder) FGe(a, b Value) *Instr { return bd.bin(OpFGe, I64, a, b) }

// SIToFP converts a signed integer to float.
func (bd *Builder) SIToFP(a Value) *Instr { return bd.emit(bd.F.newInstr(OpSIToFP, F64, a)) }

// FPToSI converts a float to a signed integer, truncating.
func (bd *Builder) FPToSI(a Value) *Instr { return bd.emit(bd.F.newInstr(OpFPToSI, I64, a)) }

// PtrToInt reinterprets a pointer as an integer.
func (bd *Builder) PtrToInt(a Value) *Instr { return bd.emit(bd.F.newInstr(OpPtrToInt, I64, a)) }

// IntToPtrVal reinterprets an integer as a pointer (the unrestricted casts
// the paper's setting permits).
func (bd *Builder) IntToPtrVal(a Value) *Instr { return bd.emit(bd.F.newInstr(OpIntToPtr, Ptr, a)) }

// Select returns a if cond is nonzero, else b.
func (bd *Builder) Select(cond, a, b Value) *Instr {
	return bd.emit(bd.F.newInstr(OpSelect, a.Type(), cond, a, b))
}

// Memory operations.

// Load emits an integer load of size bytes (zero-extended).
func (bd *Builder) Load(ptr Value, size int64) *Instr {
	in := bd.F.newInstr(OpLoad, I64, ptr)
	in.Size = size
	return bd.emit(in)
}

// LoadPtr emits an 8-byte load whose result is typed as a pointer.
func (bd *Builder) LoadPtr(ptr Value) *Instr {
	in := bd.F.newInstr(OpLoad, Ptr, ptr)
	in.Size = 8
	return bd.emit(in)
}

// LoadF emits an 8-byte float load.
func (bd *Builder) LoadF(ptr Value) *Instr {
	in := bd.F.newInstr(OpLoad, F64, ptr)
	in.Size = 8
	in.Float = true
	return bd.emit(in)
}

// Store emits a store of the low size bytes of val to ptr.
func (bd *Builder) Store(val, ptr Value, size int64) *Instr {
	in := bd.F.newInstr(OpStore, Void, val, ptr)
	in.Size = size
	return bd.emit(in)
}

// StoreF emits an 8-byte float store.
func (bd *Builder) StoreF(val, ptr Value) *Instr {
	in := bd.F.newInstr(OpStore, Void, val, ptr)
	in.Size = 8
	in.Float = true
	return bd.emit(in)
}

// Alloca emits a stack allocation of size bytes named name.
func (bd *Builder) Alloca(name string, size int64) *Instr {
	in := bd.F.newInstr(OpAlloca, Ptr)
	in.Size = size
	in.Name = name
	return bd.emit(in)
}

// Malloc emits a heap allocation of size bytes; name labels the allocation
// site for the pointer-to-object profiler.
func (bd *Builder) Malloc(name string, size Value) *Instr {
	in := bd.F.newInstr(OpMalloc, Ptr, size)
	in.Name = name
	return bd.emit(in)
}

// Free emits a heap release of the object at ptr.
func (bd *Builder) Free(ptr Value) *Instr {
	return bd.emit(bd.F.newInstr(OpFree, Void, ptr))
}

// Global emits the address of module global g.
func (bd *Builder) Global(g *Global) *Instr {
	in := bd.F.newInstr(OpGlobal, Ptr)
	in.GlobalRef = g
	return bd.emit(in)
}

// MemSet fills n bytes at ptr with byte value b.
func (bd *Builder) MemSet(ptr, n, b Value) *Instr {
	return bd.emit(bd.F.newInstr(OpMemSet, Void, ptr, n, b))
}

// MemCopy copies n bytes from src to dst.
func (bd *Builder) MemCopy(dst, src, n Value) *Instr {
	return bd.emit(bd.F.newInstr(OpMemCopy, Void, dst, src, n))
}

// Calls and I/O.

// Call emits a direct call to f.
func (bd *Builder) Call(f *Function, args ...Value) *Instr {
	in := bd.F.newInstr(OpCall, f.RetType, args...)
	in.Callee = f
	return bd.emit(in)
}

// Builtin emits a call to the named runtime builtin (sqrt, exp, log, ...).
func (bd *Builder) Builtin(name string, t Type, args ...Value) *Instr {
	in := bd.F.newInstr(OpBuiltin, t, args...)
	in.Builtin = name
	return bd.emit(in)
}

// Print emits formatted output. The format string uses %d for integers and
// %f/%g for floats, one verb per argument, interpreted by the runtime.
func (bd *Builder) Print(format string, args ...Value) *Instr {
	in := bd.F.newInstr(OpPrint, Void, args...)
	in.Str = format
	return bd.emit(in)
}

// Terminators.

// Ret emits a return; pass no argument for void functions.
func (bd *Builder) Ret(vals ...Value) *Instr {
	return bd.emit(bd.F.newInstr(OpRet, Void, vals...))
}

// Br emits an unconditional branch to target.
func (bd *Builder) Br(target *Block) *Instr {
	in := bd.F.newInstr(OpBr, Void)
	in.Targets = []*Block{target}
	return bd.emit(in)
}

// CondBr branches to then if cond is nonzero, otherwise to els.
func (bd *Builder) CondBr(cond Value, then, els *Block) *Instr {
	in := bd.F.newInstr(OpCondBr, Void, cond)
	in.Targets = []*Block{then, els}
	return bd.emit(in)
}

// Phi emits a phi node; add incoming edges with AddIncoming.
func (bd *Builder) Phi(t Type) *Instr {
	return bd.emit(bd.F.newInstr(OpPhi, t))
}

// AddIncoming records that phi receives v when control arrives from pred.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	phi.Args = append(phi.Args, v)
	phi.Preds = append(phi.Preds, pred)
}

// --- Privateer intrinsics (inserted by the privatizing transformation) ---

// HAlloc emits an allocation of size bytes from logical heap h.
func (bd *Builder) HAlloc(name string, size Value, h HeapKind) *Instr {
	in := bd.F.newInstr(OpHAlloc, Ptr, size)
	in.Heap = h
	in.Name = name
	return bd.emit(in)
}

// HDealloc emits a release of ptr back to logical heap h.
func (bd *Builder) HDealloc(ptr Value, h HeapKind) *Instr {
	in := bd.F.newInstr(OpHDealloc, Void, ptr)
	in.Heap = h
	return bd.emit(in)
}

// CheckHeap emits a separation check: misspeculate unless ptr's address tag
// matches h.
func (bd *Builder) CheckHeap(ptr Value, h HeapKind) *Instr {
	in := bd.F.newInstr(OpCheckHeap, Void, ptr)
	in.Heap = h
	return bd.emit(in)
}

// PrivateRead emits a privacy check covering a load of size bytes at ptr.
func (bd *Builder) PrivateRead(ptr Value, size int64) *Instr {
	in := bd.F.newInstr(OpPrivateRead, Void, ptr)
	in.Size = size
	return bd.emit(in)
}

// PrivateWrite emits a privacy check covering a store of size bytes at ptr.
func (bd *Builder) PrivateWrite(ptr Value, size int64) *Instr {
	in := bd.F.newInstr(OpPrivateWrite, Void, ptr)
	in.Size = size
	return bd.emit(in)
}

// PrivateReadSpan emits a span privacy check covering reads of count
// elements of size bytes starting at ptr, consecutive elements stride
// bytes apart.
func (bd *Builder) PrivateReadSpan(ptr, count, stride Value, size int64) *Instr {
	in := bd.F.newInstr(OpPrivateReadSpan, Void, ptr, count, stride)
	in.Size = size
	return bd.emit(in)
}

// PrivateWriteSpan emits a span privacy check covering writes of count
// elements of size bytes starting at ptr, consecutive elements stride
// bytes apart.
func (bd *Builder) PrivateWriteSpan(ptr, count, stride Value, size int64) *Instr {
	in := bd.F.newInstr(OpPrivateWriteSpan, Void, ptr, count, stride)
	in.Size = size
	return bd.emit(in)
}

// ReduxWrite emits a reduction-update marker for size bytes at ptr using
// operator k.
func (bd *Builder) ReduxWrite(ptr Value, size int64, k ReduxKind) *Instr {
	in := bd.F.newInstr(OpReduxWrite, Void, ptr)
	in.Size = size
	in.Redux = k
	return bd.emit(in)
}

// Predict emits a value-prediction check: misspeculate if actual != expected.
func (bd *Builder) Predict(actual, expected Value) *Instr {
	return bd.emit(bd.F.newInstr(OpPredict, Void, actual, expected))
}

// Misspec emits an unconditional misspeculation signal.
func (bd *Builder) Misspec() *Instr {
	return bd.emit(bd.F.newInstr(OpMisspec, Void))
}

// --- Structured control flow (C-like embedded DSL) ---

// Local declares an 8-byte scalar local variable as an alloca in the entry
// block (so PromoteAllocas can turn it into an SSA register) and returns its
// address.
func (bd *Builder) Local(name string) *Instr {
	in := bd.F.newInstr(OpAlloca, Ptr)
	in.Size = 8
	in.Name = name
	// Insert at the top of the entry block, before any terminator.
	entry := bd.F.Entry()
	in.Blk = entry
	entry.Instrs = append([]*Instr{in}, entry.Instrs...)
	return in
}

// Ld loads the 8-byte integer local at addr.
func (bd *Builder) Ld(addr Value) *Instr { return bd.Load(addr, 8) }

// LdP loads the pointer local at addr.
func (bd *Builder) LdP(addr Value) *Instr { return bd.LoadPtr(addr) }

// LdF loads the float local at addr.
func (bd *Builder) LdF(addr Value) *Instr { return bd.LoadF(addr) }

// St stores the 8-byte value v to the local at addr.
func (bd *Builder) St(v, addr Value) *Instr {
	if v.Type() == F64 {
		return bd.StoreF(v, addr)
	}
	return bd.Store(v, addr, 8)
}

// If emits a two-armed conditional; either arm may be nil.
func (bd *Builder) If(cond Value, then func(), els func()) {
	thenB := bd.NewBlock("if.then")
	exitB := bd.NewBlock("if.end")
	elsB := exitB
	if els != nil {
		elsB = bd.NewBlock("if.else")
	}
	bd.CondBr(cond, thenB, elsB)
	bd.SetBlock(thenB)
	if then != nil {
		then()
	}
	if bd.B.Terminator() == nil {
		bd.Br(exitB)
	}
	if els != nil {
		bd.SetBlock(elsB)
		els()
		if bd.B.Terminator() == nil {
			bd.Br(exitB)
		}
	}
	bd.SetBlock(exitB)
}

// While emits a while loop. cond is evaluated in a fresh header block each
// trip; body runs while it is nonzero.
func (bd *Builder) While(cond func() Value, body func()) {
	header := bd.NewBlock("while.head")
	bodyB := bd.NewBlock("while.body")
	exitB := bd.NewBlock("while.end")
	bd.Br(header)
	bd.SetBlock(header)
	bd.CondBr(cond(), bodyB, exitB)
	bd.SetBlock(bodyB)
	body()
	if bd.B.Terminator() == nil {
		bd.Br(header)
	}
	bd.SetBlock(exitB)
}

// For emits the canonical counted loop `for (name=lo; name<hi; name++)`.
// The induction variable lives in a local; body receives its address so the
// body can load the current trip value with Ld.
func (bd *Builder) For(name string, lo, hi Value, body func(iv *Instr)) {
	iv := bd.Local(name)
	bd.St(lo, iv)
	header := bd.NewBlock("for.head")
	bodyB := bd.NewBlock("for.body")
	exitB := bd.NewBlock("for.end")
	bd.Br(header)
	bd.SetBlock(header)
	bd.CondBr(bd.SLt(bd.Ld(iv), hi), bodyB, exitB)
	bd.SetBlock(bodyB)
	body(iv)
	if bd.B.Terminator() == nil {
		bd.St(bd.Add(bd.Ld(iv), bd.I(1)), iv)
		bd.Br(header)
	}
	bd.SetBlock(exitB)
}
