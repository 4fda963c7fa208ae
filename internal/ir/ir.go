// Package ir defines the intermediate representation used by the Privateer
// reproduction: a typed, SSA-style IR for a C-like language with unrestricted
// pointers, loads and stores of arbitrary widths, dynamic allocation, calls,
// and explicit control flow.
//
// The IR deliberately mirrors the abstraction level of the paper's LLVM
// substrate: memory is a flat, byte-addressed space; pointers are plain
// 64-bit words; allocation sites (malloc, alloca, globals) are the unit at
// which the pointer-to-object profiler names objects; and natural loops,
// dominator trees and induction variables are recovered from the CFG exactly
// as a mid-end pass pipeline would.
//
// Programs may be written in a relaxed, non-SSA style (scalar locals as
// allocas, as a front end would emit them); the PromoteAllocas pass (mem2reg)
// rewrites them into pruned SSA so that loop analyses see register
// dependences rather than spurious memory traffic.
package ir

import "fmt"

// Type classifies the value produced by an instruction. The IR is
// word-oriented: integers and pointers are 64-bit words and floats are IEEE
// binary64 carried in the same word, so Type exists for analysis and
// verification rather than for storage layout.
type Type uint8

const (
	// Void is the type of instructions that produce no value.
	Void Type = iota
	// I64 is a 64-bit integer.
	I64
	// F64 is an IEEE-754 binary64 floating point number, stored bitwise in
	// a 64-bit word.
	F64
	// Ptr is a 64-bit virtual address into the simulated address space.
	Ptr
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I64:
		return "i64"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Op enumerates instruction opcodes.
type Op uint8

const (
	// OpInvalid is the zero Op; a verifier error if it appears.
	OpInvalid Op = iota

	// Constants and conversions.
	OpConst  // integer or pointer constant (Const field)
	OpFConst // float constant (Const field holds the bit pattern)
	OpSIToFP // signed int -> float
	OpFPToSI // float -> signed int (truncating)

	// Integer arithmetic (operands and result I64 or Ptr).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Integer comparisons (result I64, 0 or 1).
	OpEq
	OpNe
	OpSLt
	OpSLe
	OpSGt
	OpSGe
	OpULt
	OpUGe

	// Float arithmetic and comparisons.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFEq
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// OpSelect returns Args[1] if Args[0] is nonzero, else Args[2].
	OpSelect

	// Memory.
	OpLoad     // load Size bytes from Args[0]; Float reinterprets as F64
	OpStore    // store low Size bytes of Args[0] to Args[1]
	OpAlloca   // stack allocation of Size bytes; one object per dynamic execution
	OpMalloc   // heap allocation of Args[0] bytes
	OpFree     // release the object at Args[0]
	OpGlobal   // address of the module global named by Global
	OpMemSet   // fill Args[1] bytes at Args[0] with byte Args[2]
	OpMemCopy  // copy Args[2] bytes from Args[1] to Args[0]
	OpPtrToInt // reinterpret pointer as integer
	OpIntToPtr // reinterpret integer as pointer (unrestricted casts)

	// Calls.
	OpCall    // direct call to Callee with Args
	OpBuiltin // call to a named runtime builtin (sqrt, exp, log, ...)
	OpPrint   // formatted output; Str is the format, Args the values

	// Control flow (block terminators).
	OpRet    // return Args[0] (or nothing if len(Args)==0)
	OpBr     // unconditional branch to Targets[0]
	OpCondBr // branch to Targets[0] if Args[0]!=0 else Targets[1]

	// OpPhi selects the incoming value matching the predecessor block;
	// Args aligns with Preds.
	OpPhi

	// Privateer intrinsics, inserted by the privatizing transformation
	// (sections 4.4-4.6 of the paper). They are ordinary instructions so
	// analyses see them, and the interpreter routes them to the runtime.
	OpHAlloc       // allocate Args[0] bytes from logical heap Heap
	OpHDealloc     // free Args[0] from logical heap Heap
	OpCheckHeap    // separation check: Args[0] must lie in logical heap Heap
	OpPrivateRead  // privacy check before a load of Size bytes at Args[0]
	OpPrivateWrite // privacy check before a store of Size bytes at Args[0]
	OpReduxWrite   // reduction update marker: Args[0] address, Size bytes, ReduxKind op
	OpPredict      // value prediction check: misspeculate if Args[0] != Args[1]
	OpMisspec      // unconditionally signal misspeculation

	// Span-level privacy marks, produced by the postprocess elision pass
	// (Postprocess.cpp's joined/promoted private ops): one mark covers
	// Args[1] elements of Size bytes starting at Args[0], consecutive
	// elements Args[2] bytes apart. A dense span has stride == Size; a
	// count <= 0 is a runtime no-op.
	OpPrivateReadSpan  // span privacy check before reads
	OpPrivateWriteSpan // span privacy check before writes

	opCount
)

// NumOps is the number of distinct opcodes (including OpInvalid), for
// sizing per-opcode tables such as the interpreter's profiler counters.
const NumOps = int(opCount)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const", OpFConst: "fconst", OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpNe: "ne", OpSLt: "slt", OpSLe: "sle", OpSGt: "sgt",
	OpSGe: "sge", OpULt: "ult", OpUGe: "uge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFEq: "feq", OpFLt: "flt", OpFLe: "fle", OpFGt: "fgt", OpFGe: "fge",
	OpSelect: "select",
	OpLoad:   "load", OpStore: "store", OpAlloca: "alloca", OpMalloc: "malloc",
	OpFree: "free", OpGlobal: "global", OpMemSet: "memset", OpMemCopy: "memcopy",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpCall: "call", OpBuiltin: "builtin", OpPrint: "print",
	OpRet: "ret", OpBr: "br", OpCondBr: "condbr", OpPhi: "phi",
	OpHAlloc: "h_alloc", OpHDealloc: "h_dealloc", OpCheckHeap: "check_heap",
	OpPrivateRead: "private_read", OpPrivateWrite: "private_write",
	OpReduxWrite: "redux_write", OpPredict: "predict", OpMisspec: "misspec",
	OpPrivateReadSpan: "private_read_span", OpPrivateWriteSpan: "private_write_span",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Arity is the number of value operands the op takes, -1 when it takes a
// variable number (ret, phi, call, builtin, print).
func (o Op) Arity() int {
	switch o {
	case OpConst, OpFConst, OpAlloca, OpGlobal, OpMisspec, OpBr:
		return 0
	case OpSIToFP, OpFPToSI, OpFree, OpMalloc, OpHAlloc, OpHDealloc, OpCheckHeap,
		OpPrivateRead, OpPrivateWrite, OpReduxWrite, OpLoad, OpPtrToInt, OpIntToPtr, OpCondBr:
		return 1
	case OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem, OpAnd, OpOr, OpXor,
		OpShl, OpLShr, OpAShr, OpEq, OpNe, OpSLt, OpSLe, OpSGt, OpSGe, OpULt, OpUGe,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFLt, OpFLe, OpFGt, OpFGe,
		OpStore, OpPredict:
		return 2
	case OpSelect, OpMemSet, OpMemCopy, OpPrivateReadSpan, OpPrivateWriteSpan:
		return 3
	}
	return -1
}

// IsTerminator reports whether the op must end a basic block.
func (o Op) IsTerminator() bool {
	return o == OpRet || o == OpBr || o == OpCondBr
}

// Reads reports whether the op reads program memory.
func (o Op) Reads() bool { return o == OpLoad || o == OpMemCopy }

// Writes reports whether the op writes program memory.
func (o Op) Writes() bool {
	return o == OpStore || o == OpMemSet || o == OpMemCopy
}

// ReduxKind identifies the associative, commutative operator of a reduction
// (section 3, Reduction Criterion). The identity value of the operator
// initializes the reduction heap when a parallel region is entered.
type ReduxKind uint8

const (
	// ReduxNone marks a non-reduction access.
	ReduxNone ReduxKind = iota
	// ReduxAddI64 is integer sum.
	ReduxAddI64
	// ReduxAddF64 is floating-point sum.
	ReduxAddF64
	// ReduxMinI64 is integer minimum.
	ReduxMinI64
	// ReduxMaxI64 is integer maximum.
	ReduxMaxI64
	// ReduxMinF64 is floating-point minimum.
	ReduxMinF64
	// ReduxMaxF64 is floating-point maximum.
	ReduxMaxF64
)

func (k ReduxKind) String() string {
	switch k {
	case ReduxNone:
		return "none"
	case ReduxAddI64:
		return "add.i64"
	case ReduxAddF64:
		return "add.f64"
	case ReduxMinI64:
		return "min.i64"
	case ReduxMaxI64:
		return "max.i64"
	case ReduxMinF64:
		return "min.f64"
	case ReduxMaxF64:
		return "max.f64"
	}
	return fmt.Sprintf("redux(%d)", uint8(k))
}
