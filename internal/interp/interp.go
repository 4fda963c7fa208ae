// Package interp executes Privateer IR over the simulated address space.
//
// It stands in for native execution of compiled code: every dynamic event
// the paper's profilers and runtime observe (loads, stores, allocations,
// block transfers, iteration boundaries) is surfaced through the Hooks
// structure, so the pointer-to-object profiler, the dependence profiler and
// the speculative runtime attach to the same program without modifying it.
// The speculation checks are instructions like any other: check_heap,
// predict and misspec execute inline and count into the interpreter, and
// the privacy checks go to the one Speculator a speculative worker sets.
package interp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// MisspecError marks a speculation violation: the enclosing worker should
// squash, not crash. It wraps the triggering check for diagnostics.
type MisspecError struct {
	// Instr is the check that fired (may be nil for injected misspeculation).
	Instr *ir.Instr
	// Reason describes the violated speculative property.
	Reason string
	// Addr is the faulting address when the violation concerns a specific
	// memory location (privacy and separation checks); 0 otherwise. The
	// runtime uses it to attribute misspeculations to allocation sites.
	Addr uint64
}

// Error renders the violated property and, when there is one, the check
// that detected it.
func (e *MisspecError) Error() string {
	if e.Instr != nil {
		return fmt.Sprintf("misspeculation: %s (%s)", e.Reason, e.Instr.Format())
	}
	return "misspeculation: " + e.Reason
}

// Site names the instruction that detected the violation, or "" when the
// misspeculation has no syntactic site (injection, lifetime checks).
func (e *MisspecError) Site() string {
	if e.Instr == nil {
		return ""
	}
	return e.Instr.Format()
}

// The texts of the three inline checks' misspeculations: each check kind
// produces exactly one, so attribution tables and traces group by kind.
const (
	sepViolated     = "separation violated"
	predictFailed   = "value prediction failed"
	controlViolated = "control speculation violated"
)

// IsMisspec reports whether err is (or wraps) a misspeculation.
func IsMisspec(err error) bool {
	var m *MisspecError
	return errors.As(err, &m)
}

// Frame is one activation record. The interpreter reuses Frame objects
// across activations, so a hook must not retain one past the activation's
// OnExit.
type Frame struct {
	// Fn is the executing function.
	Fn *ir.Function
	// Depth is the call-stack depth (entry function = 0).
	Depth int
	// Caller is the parent frame, nil for the entry.
	Caller *Frame

	vals    []uint64
	allocas []uint64
	// slab and base are the frame stack's carve position before vals was
	// carved; pop rewinds to it.
	slab, base int
}

// Value returns the current dynamic value of v in this frame.
func (fr *Frame) Value(v ir.Value) uint64 { return fr.vals[v.ValueID()] }

// Hooks let profilers and the speculative runtime observe and intercept
// execution. Any field may be nil.
type Hooks struct {
	// OnBlock fires on every control transfer between basic blocks.
	OnBlock func(fr *Frame, from, to *ir.Block)
	// OnEnter fires when an activation starts, after its arguments are in
	// place.
	OnEnter func(fr *Frame)
	// OnExit fires when an activation ends, after its stack allocations
	// are freed, on the error exit too.
	OnExit func(fr *Frame)
	// OnLoad fires after a successful load (and the read half of memcopy).
	OnLoad func(fr *Frame, in *ir.Instr, addr uint64, size int64)
	// OnStore fires after a successful store, memset or the write half of
	// memcopy.
	OnStore func(fr *Frame, in *ir.Instr, addr uint64, size int64)
	// OnAlloc fires after malloc/alloca/h_alloc.
	OnAlloc func(fr *Frame, in *ir.Instr, addr, size uint64)
	// OnFree fires before free/h_dealloc and before an activation's stack
	// allocations are released (in is nil for those).
	OnFree func(fr *Frame, in *ir.Instr, addr uint64)
	// OnPrint intercepts formatted output; return true if handled
	// (e.g. deferred into the speculative I/O queue).
	OnPrint func(in *ir.Instr, text string) bool
	// CallOverride intercepts direct calls; return handled=true to supply
	// the result instead of interpreting the callee. The speculative
	// runtime uses it to take over parallel-region functions. args aliases
	// interpreter storage and is valid only until the hook returns.
	CallOverride func(fr *Frame, in *ir.Instr, callee *ir.Function, args []uint64) (ret uint64, handled bool, err error)
}

// Speculator validates the privacy checks of a speculative worker against
// its shadow metadata. A private_read or private_write is a span of one
// element; private_read_span and private_write_span pass their operands
// (count <= 0 is a no-op). An error, typically a *MisspecError, aborts the
// current Run.
type Speculator interface {
	Private(in *ir.Instr, addr uint64, count, stride, size int64, write bool) error
}

// Interp executes functions of one module against one address space.
type Interp struct {
	// Mod is the program.
	Mod *ir.Module
	// AS is the memory image.
	AS *vm.AddressSpace
	// Hooks observe execution; may be zero.
	Hooks Hooks
	// Spec receives the privacy checks; nil skips them, as recovery and
	// every non-speculative run do.
	Spec Speculator
	// ChecksOff turns check_heap, predict and misspec into no-ops: the
	// runtime's recovery runs iterations it knows must not misspeculate.
	ChecksOff bool
	// SepChecks and Predictions count the check_heap and predict
	// instructions executed with checks on.
	SepChecks, Predictions int64
	// Out receives formatted output not claimed by Hooks.OnPrint.
	Out *strings.Builder
	// StepLimit aborts runaway programs; 0 means the default (2^40).
	StepLimit int64
	// Steps counts executed instructions.
	Steps int64
	// MaxDepth bounds recursion; 0 means the default (4096).
	MaxDepth int

	globalsLaidOut bool
	// globalAddrs[prog.globalSlot(g)] is g's runtime address.
	globalAddrs []uint64

	// prog is the shared pre-decoded form of Mod (see decode.go).
	// Interpreters built with NewShared reuse the creator's cache, so each
	// function decodes once per run rather than once per worker.
	prog *Program
	// treeWalk selects the tree-walking reference executor (NewReference)
	// instead of the pre-decoded dispatch loop.
	treeWalk bool
	// hookMask is the active-hook bitmask of the current activation (see
	// exec_fast.go); recomputed on every call so the dispatch loop tests a
	// register instead of six function pointers.
	hookMask uint32

	// stack holds every activation's Frame and value array (see stack.go).
	stack frameStack
	// decoded caches prog's decoded functions for the current outermost
	// activation: the shape check that catches IR mutated between
	// invocations runs once per function per outermost call, and nested
	// calls pay a map lookup.
	decoded map[*ir.Function]*decodedFunc
	// scratch is the staging buffer of memset/memcopy, and printBuf the
	// one print renders into, each grown to the largest request seen.
	scratch, printBuf []byte
}

// New returns an interpreter for mod over as.
func New(mod *ir.Module, as *vm.AddressSpace) *Interp {
	return NewShared(SharedProgram(mod), as)
}

// NewShared returns an interpreter over as that reuses prog's decode cache.
// The speculative runtime constructs its workers this way so the master's
// decoded functions are shared rather than re-derived per worker.
func NewShared(prog *Program, as *vm.AddressSpace) *Interp {
	return &Interp{Mod: prog.Mod, AS: as, Out: &strings.Builder{},
		globalAddrs: make([]uint64, len(prog.globalIdx)+1),
		prog:        prog, decoded: map[*ir.Function]*decodedFunc{}}
}

// NewReference returns an interpreter for mod over as that runs on the
// tree-walking reference executor: the semantics the decoded executor is
// held to, instruction by instruction. It executes every constant where it
// stands, fuses nothing and charges every instruction on its own; tests
// compare the interpreters New returns against it.
func NewReference(mod *ir.Module, as *vm.AddressSpace) *Interp {
	it := New(mod, as)
	it.treeWalk = true
	return it
}

// Program exposes the interpreter's decode cache for sharing via NewShared.
func (it *Interp) Program() *Program { return it.prog }

// Recycle resets a pooled interpreter for a fresh activation over as, which
// the caller has already released or re-targeted (vm.AddressSpace.Release,
// RecloneFrom): hooks, the Speculator, output, step and check counters and
// the adopted global layout are cleared, checks are turned back on and the
// frame stack emptied, while the shared decode cache, the stack's frames and
// slabs and the map capacity grown on earlier runs are retained. The
// speculative runtime's warmed pool recycles every interpreter it parks, so
// a parked one references nothing of the run that used it and the next user
// observes nothing from it; that user lays out or adopts globals and
// installs hooks exactly as on a freshly constructed interpreter.
func (it *Interp) Recycle(as *vm.AddressSpace) {
	it.AS = as
	it.Hooks = Hooks{}
	it.Spec = nil
	it.ChecksOff = false
	it.SepChecks, it.Predictions = 0, 0
	it.Out.Reset()
	it.StepLimit = 0
	it.Steps = 0
	it.MaxDepth = 0
	it.globalsLaidOut = false
	clear(it.globalAddrs)
	it.hookMask = 0
	it.stack.reset()
}

// LayOutGlobals allocates every module global into its assigned heap and
// writes initial contents. It runs automatically before the first call; the
// privatizing transformation's "initializer before main" is this step with
// non-system heap assignments.
func (it *Interp) LayOutGlobals() error {
	if it.globalsLaidOut {
		return nil
	}
	for _, name := range it.Mod.GlobalNames() {
		g := it.Mod.Globals[name]
		addr, err := it.AS.Alloc(g.Heap, uint64(g.Size))
		if err != nil {
			return fmt.Errorf("laying out global %s: %w", g.Name, err)
		}
		if len(g.Init) > 0 {
			if err := it.AS.WriteBytes(addr, g.Init); err != nil {
				return fmt.Errorf("initializing global %s: %w", g.Name, err)
			}
		}
		it.globalAddrs[it.prog.globalSlot(g)] = addr
	}
	it.globalsLaidOut = true
	return nil
}

// GlobalAddr returns the runtime address of g (after layout).
func (it *Interp) GlobalAddr(g *ir.Global) uint64 { return it.globalAddrs[it.prog.globalSlot(g)] }

// GlobalLayout exports the full global->address table, indexed by the
// global's position in the module's declaration order.
func (it *Interp) GlobalLayout() []uint64 { return it.globalAddrs }

// AdoptLayout installs a layout exported by an interpreter of the same
// module.
func (it *Interp) AdoptLayout(layout []uint64) {
	copy(it.globalAddrs, layout)
	it.globalsLaidOut = true
}

// Run executes the module entry function with the given arguments.
func (it *Interp) Run(args ...uint64) (uint64, error) {
	entry := it.Mod.Entry()
	if entry == nil {
		return 0, fmt.Errorf("interp: module %s has no entry %q", it.Mod.Name, it.Mod.EntryName)
	}
	return it.Call(entry, args...)
}

// Call executes fn with args and returns its result.
func (it *Interp) Call(fn *ir.Function, args ...uint64) (uint64, error) {
	if err := it.LayOutGlobals(); err != nil {
		return 0, err
	}
	return it.call(fn, args, nil)
}

func (it *Interp) call(fn *ir.Function, args []uint64, caller *Frame) (uint64, error) {
	maxDepth := it.MaxDepth
	if maxDepth == 0 {
		maxDepth = 4096
	}
	depth := 0
	if caller != nil {
		depth = caller.Depth + 1
	}
	if depth >= maxDepth {
		return 0, fmt.Errorf("interp: call depth %d exceeded in %s", maxDepth, fn.Name)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	var df *decodedFunc
	if !it.treeWalk {
		if caller == nil {
			clear(it.decoded)
		}
		df = it.decoded[fn]
		if df == nil {
			df = it.prog.decodedFor(fn)
			it.decoded[fn] = df
		}
	}
	fr := it.stack.push(fn, depth, caller)
	switch {
	case df == nil:
		clear(fr.vals)
	case len(fr.vals) < len(df.image):
		// The decoded entries index the frame unchecked (unchecked.go); a
		// frame smaller than the one they were proven against must not
		// reach them.
		it.stack.pop(fr)
		return 0, fmt.Errorf("interp: %s has %d value slots, decoded for %d", fn.Name, len(fr.vals), len(df.image))
	default:
		// The frame image holds the hoisted constants (see decode.go); the
		// hoisted global addresses are this interpreter's.
		copy(fr.vals, df.image)
		for _, g := range df.globals {
			fr.vals[g.dst] = it.globalAddrs[g.idx]
		}
	}
	for i, p := range fn.Params {
		fr.vals[p.ValueID()] = args[i]
	}
	if it.Hooks.OnEnter != nil {
		it.Hooks.OnEnter(fr)
	}
	var ret uint64
	var err error
	switch {
	case df == nil:
		ret, err = it.exec(fr)
	default:
		it.hookMask = it.computeHookMask()
		code, steps := df.code, it.Steps+df.code[0].charge()
		if limit := it.stepLimit(); steps > limit {
			code = stopRun(df, 0, steps, limit)
		}
		ret, err = it.execDecoded(fr, df, code, 0, steps)
	}
	// Release stack allocations regardless of how the activation ends.
	for _, a := range fr.allocas {
		if it.Hooks.OnFree != nil {
			it.Hooks.OnFree(fr, nil, a)
		}
		if ferr := it.AS.Free(a); ferr != nil && err == nil {
			err = ferr
		}
	}
	if it.Hooks.OnExit != nil {
		it.Hooks.OnExit(fr)
	}
	it.stack.pop(fr)
	return ret, err
}

// callInstr executes the direct call in of activation fr: the arguments are
// staged on the frame stack (the callee copies them into its own frame, and
// a CallOverride hook must not retain them), the hook is consulted if one
// is installed, and the callee is interpreted unless the hook handled it.
func (it *Interp) callInstr(fr *Frame, in *ir.Instr) (uint64, error) {
	st := &it.stack
	cur, top := st.cur, st.top
	args := st.carve(len(in.Args))
	for i, a := range in.Args {
		args[i] = fr.vals[a.ValueID()]
	}
	var v uint64
	var err error
	handled := false
	if it.Hooks.CallOverride != nil {
		v, handled, err = it.Hooks.CallOverride(fr, in, in.Callee, args)
	}
	if !handled && err == nil {
		v, err = it.call(in.Callee, args, fr)
	}
	st.release(cur, top)
	return v, err
}

// scratchBytes returns the interpreter's n-byte staging buffer, contents
// unspecified.
func (it *Interp) scratchBytes(n uint64) []byte {
	if n > uint64(cap(it.scratch)) {
		it.scratch = make([]byte, n)
	}
	return it.scratch[:n]
}

// stepLimit returns the effective step budget.
func (it *Interp) stepLimit() int64 {
	if it.StepLimit > 0 {
		return it.StepLimit
	}
	return 1 << 40
}

// exec runs fr's activation on the tree-walking reference executor.
// Falling off the end of an unterminated block (invalid IR) costs one step,
// then stops the run as the decoded executor's guard entry does.
func (it *Interp) exec(fr *Frame) (uint64, error) {
	block := fr.Fn.Entry()
	var prev *ir.Block
	limit := it.stepLimit()
blocks:
	for {
		// Evaluate phis as a parallel copy based on the incoming edge.
		nPhis := leadingPhis(block)
		if nPhis > 0 {
			var tmp [8]uint64
			vals := tmp[:0]
			for _, in := range block.Instrs[:nPhis] {
				v, err := it.phiValue(fr, in, prev)
				if err != nil {
					return 0, err
				}
				vals = append(vals, v)
			}
			for i, in := range block.Instrs[:nPhis] {
				fr.vals[in.ValueID()] = vals[i]
			}
		}
		for _, in := range block.Instrs[nPhis:] {
			it.Steps++
			if it.Steps > limit {
				return 0, stepLimitError(limit, fr)
			}
			switch in.Op {
			case ir.OpRet:
				if len(in.Args) == 1 {
					return fr.vals[in.Args[0].ValueID()], nil
				}
				return 0, nil
			case ir.OpBr:
				next := in.Targets[0]
				if it.Hooks.OnBlock != nil {
					it.Hooks.OnBlock(fr, block, next)
				}
				prev, block = block, next
			case ir.OpCondBr:
				next := in.Targets[1]
				if fr.vals[in.Args[0].ValueID()] != 0 {
					next = in.Targets[0]
				}
				if it.Hooks.OnBlock != nil {
					it.Hooks.OnBlock(fr, block, next)
				}
				prev, block = block, next
			default:
				if err := it.execInstr(fr, in); err != nil {
					return 0, err
				}
				continue
			}
			continue blocks // control transferred
		}
		it.Steps++
		if it.Steps > limit {
			return 0, stepLimitError(limit, fr)
		}
		return 0, fmt.Errorf("interp: unterminated block in %s", fr.Fn.Name)
	}
}

// stepLimitError is the error of a run that exceeds its step budget in fr.
func stepLimitError(limit int64, fr *Frame) error {
	return fmt.Errorf("interp: step limit %d exceeded in %s", limit, fr.Fn.Name)
}

func (it *Interp) phiValue(fr *Frame, phi *ir.Instr, prev *ir.Block) (uint64, error) {
	for i, p := range phi.Preds {
		if p == prev {
			return fr.vals[phi.Args[i].ValueID()], nil
		}
	}
	return 0, fmt.Errorf("interp: phi %s in %s.%s has no incoming for predecessor %v",
		phi, fr.Fn.Name, phi.Blk.Name, prev)
}

func f64(w uint64) float64  { return math.Float64frombits(w) }
func bits(f float64) uint64 { return math.Float64bits(f) }
func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (it *Interp) execInstr(fr *Frame, in *ir.Instr) error {
	arg := func(i int) uint64 { return fr.vals[in.Args[i].ValueID()] }
	set := func(v uint64) { fr.vals[in.ValueID()] = v }
	switch in.Op {
	case ir.OpConst, ir.OpFConst:
		set(in.Const)
	case ir.OpSIToFP:
		set(bits(float64(int64(arg(0)))))
	case ir.OpFPToSI:
		set(uint64(int64(f64(arg(0)))))
	case ir.OpAdd:
		set(arg(0) + arg(1))
	case ir.OpSub:
		set(arg(0) - arg(1))
	case ir.OpMul:
		set(arg(0) * arg(1))
	case ir.OpSDiv:
		if arg(1) == 0 {
			return fmt.Errorf("interp: division by zero (%s)", in.Format())
		}
		set(uint64(int64(arg(0)) / int64(arg(1))))
	case ir.OpUDiv:
		if arg(1) == 0 {
			return fmt.Errorf("interp: division by zero (%s)", in.Format())
		}
		set(arg(0) / arg(1))
	case ir.OpSRem:
		if arg(1) == 0 {
			return fmt.Errorf("interp: remainder by zero (%s)", in.Format())
		}
		set(uint64(int64(arg(0)) % int64(arg(1))))
	case ir.OpURem:
		if arg(1) == 0 {
			return fmt.Errorf("interp: remainder by zero (%s)", in.Format())
		}
		set(arg(0) % arg(1))
	case ir.OpAnd:
		set(arg(0) & arg(1))
	case ir.OpOr:
		set(arg(0) | arg(1))
	case ir.OpXor:
		set(arg(0) ^ arg(1))
	case ir.OpShl:
		set(arg(0) << (arg(1) & 63))
	case ir.OpLShr:
		set(arg(0) >> (arg(1) & 63))
	case ir.OpAShr:
		set(uint64(int64(arg(0)) >> (arg(1) & 63)))
	case ir.OpEq:
		set(b2w(arg(0) == arg(1)))
	case ir.OpNe:
		set(b2w(arg(0) != arg(1)))
	case ir.OpSLt:
		set(b2w(int64(arg(0)) < int64(arg(1))))
	case ir.OpSLe:
		set(b2w(int64(arg(0)) <= int64(arg(1))))
	case ir.OpSGt:
		set(b2w(int64(arg(0)) > int64(arg(1))))
	case ir.OpSGe:
		set(b2w(int64(arg(0)) >= int64(arg(1))))
	case ir.OpULt:
		set(b2w(arg(0) < arg(1)))
	case ir.OpUGe:
		set(b2w(arg(0) >= arg(1)))
	case ir.OpFAdd:
		set(bits(f64(arg(0)) + f64(arg(1))))
	case ir.OpFSub:
		set(bits(f64(arg(0)) - f64(arg(1))))
	case ir.OpFMul:
		set(bits(f64(arg(0)) * f64(arg(1))))
	case ir.OpFDiv:
		set(bits(f64(arg(0)) / f64(arg(1))))
	case ir.OpFEq:
		set(b2w(f64(arg(0)) == f64(arg(1))))
	case ir.OpFLt:
		set(b2w(f64(arg(0)) < f64(arg(1))))
	case ir.OpFLe:
		set(b2w(f64(arg(0)) <= f64(arg(1))))
	case ir.OpFGt:
		set(b2w(f64(arg(0)) > f64(arg(1))))
	case ir.OpFGe:
		set(b2w(f64(arg(0)) >= f64(arg(1))))
	case ir.OpSelect:
		if arg(0) != 0 {
			set(arg(1))
		} else {
			set(arg(2))
		}
	case ir.OpPtrToInt, ir.OpIntToPtr:
		set(arg(0))
	case ir.OpLoad:
		addr := arg(0)
		v, err := it.AS.Read(addr, in.Size)
		if err != nil {
			return err
		}
		set(v)
		if it.Hooks.OnLoad != nil {
			it.Hooks.OnLoad(fr, in, addr, in.Size)
		}
	case ir.OpStore:
		addr := arg(1)
		if err := it.AS.Write(addr, in.Size, arg(0)); err != nil {
			return err
		}
		if it.Hooks.OnStore != nil {
			it.Hooks.OnStore(fr, in, addr, in.Size)
		}
	case ir.OpAlloca:
		addr, err := it.AS.Alloc(ir.HeapSystem, uint64(in.Size))
		if err != nil {
			return err
		}
		fr.allocas = append(fr.allocas, addr)
		set(addr)
		if it.Hooks.OnAlloc != nil {
			it.Hooks.OnAlloc(fr, in, addr, uint64(in.Size))
		}
	case ir.OpMalloc:
		size := arg(0)
		addr, err := it.AS.Alloc(ir.HeapSystem, size)
		if err != nil {
			return err
		}
		set(addr)
		if it.Hooks.OnAlloc != nil {
			it.Hooks.OnAlloc(fr, in, addr, size)
		}
	case ir.OpHAlloc:
		size := arg(0)
		addr, err := it.AS.Alloc(in.Heap, size)
		if err != nil {
			return err
		}
		set(addr)
		if it.Hooks.OnAlloc != nil {
			it.Hooks.OnAlloc(fr, in, addr, size)
		}
	case ir.OpFree, ir.OpHDealloc:
		addr := arg(0)
		if it.Hooks.OnFree != nil {
			it.Hooks.OnFree(fr, in, addr)
		}
		if err := it.AS.Free(addr); err != nil {
			return err
		}
	case ir.OpGlobal:
		set(it.globalAddrs[it.prog.globalSlot(in.GlobalRef)])
	case ir.OpMemSet:
		addr, n, b := arg(0), arg(1), byte(arg(2))
		buf := it.scratchBytes(n)
		for i := range buf {
			buf[i] = b
		}
		if err := it.AS.WriteBytes(addr, buf); err != nil {
			return err
		}
		if it.Hooks.OnStore != nil {
			it.Hooks.OnStore(fr, in, addr, int64(n))
		}
	case ir.OpMemCopy:
		dst, src, n := arg(0), arg(1), arg(2)
		buf := it.scratchBytes(n)
		if err := it.AS.ReadBytes(src, buf); err != nil {
			return err
		}
		if it.Hooks.OnLoad != nil {
			it.Hooks.OnLoad(fr, in, src, int64(n))
		}
		if err := it.AS.WriteBytes(dst, buf); err != nil {
			return err
		}
		if it.Hooks.OnStore != nil {
			it.Hooks.OnStore(fr, in, dst, int64(n))
		}
	case ir.OpCall:
		v, err := it.callInstr(fr, in)
		if err != nil {
			return err
		}
		set(v)
	case ir.OpBuiltin:
		v, err := it.builtin(builtinIndex(in.Builtin), in, fr)
		if err != nil {
			return err
		}
		set(v)
	case ir.OpPrint:
		text := it.formatPrint(in, fr)
		if it.Hooks.OnPrint == nil || !it.Hooks.OnPrint(in, string(text)) {
			if it.Out == nil {
				it.Out = &strings.Builder{}
			}
			it.Out.Write(text)
		}
	case ir.OpCheckHeap:
		if it.ChecksOff {
			break
		}
		it.SepChecks++
		if addr := arg(0); addr != 0 && ir.HeapOf(addr) != in.Heap {
			return &MisspecError{Instr: in, Addr: addr, Reason: sepViolated}
		}
	case ir.OpPrivateRead, ir.OpPrivateWrite:
		if it.Spec != nil {
			return it.Spec.Private(in, arg(0), 1, in.Size, in.Size, in.Op == ir.OpPrivateWrite)
		}
	case ir.OpPrivateReadSpan, ir.OpPrivateWriteSpan:
		if it.Spec != nil {
			return it.Spec.Private(in, arg(0), int64(arg(1)), int64(arg(2)), in.Size, in.Op == ir.OpPrivateWriteSpan)
		}
	case ir.OpReduxWrite:
		// A marker only: separation into the redux heap is check_heap's.
	case ir.OpPredict:
		if it.ChecksOff {
			break
		}
		it.Predictions++
		if arg(0) != arg(1) {
			return &MisspecError{Instr: in, Reason: predictFailed}
		}
	case ir.OpMisspec:
		if !it.ChecksOff {
			return &MisspecError{Instr: in, Reason: controlViolated}
		}
	default:
		return fmt.Errorf("interp: cannot execute %s", in.Format())
	}
	return nil
}

// The math builtins OpBuiltin may name, by the index builtinIndex resolves
// the name to; the decoder keeps the index in dinstr.cnst.
const (
	bSqrt = iota
	bExp
	bLog
	bPow
	bFabs
	bFloor
	bSin
	bCos
	bUnknown
)

// builtinIndex resolves a builtin's name, bUnknown for a name no builtin
// has.
func builtinIndex(name string) uint64 {
	switch name {
	case "sqrt":
		return bSqrt
	case "exp":
		return bExp
	case "log":
		return bLog
	case "pow":
		return bPow
	case "fabs":
		return bFabs
	case "floor":
		return bFloor
	case "sin":
		return bSin
	case "cos":
		return bCos
	}
	return bUnknown
}

// builtin evaluates the OpBuiltin in, whose name resolves to k. ir.Verify
// does not count a builtin's operands, so a builtin given fewer than it
// reads is an error here.
func (it *Interp) builtin(k uint64, in *ir.Instr, fr *Frame) (uint64, error) {
	want := 1
	switch k {
	case bPow:
		want = 2
	case bUnknown:
		want = 0
	}
	if len(in.Args) < want {
		return 0, fmt.Errorf("interp: builtin %q wants %d operands, has %d", in.Builtin, want, len(in.Args))
	}
	arg := func(i int) float64 { return f64(fr.vals[in.Args[i].ValueID()]) }
	switch k {
	case bSqrt:
		return bits(math.Sqrt(arg(0))), nil
	case bExp:
		return bits(math.Exp(arg(0))), nil
	case bLog:
		return bits(math.Log(arg(0))), nil
	case bPow:
		return bits(math.Pow(arg(0), arg(1))), nil
	case bFabs:
		return bits(math.Abs(arg(0))), nil
	case bFloor:
		return bits(math.Floor(arg(0))), nil
	case bSin:
		return bits(math.Sin(arg(0))), nil
	case bCos:
		return bits(math.Cos(arg(0))), nil
	default:
		return 0, fmt.Errorf("interp: unknown builtin %q", in.Builtin)
	}
}

// formatPrint renders an OpPrint into the interpreter's print buffer and
// returns it: verbs %d, %u, %x, %f, %g, %c and %%, each as fmt renders %d,
// %d, %x, %.6f and %g of the argument (signed, unsigned, its float bits)
// and a byte. The next print reuses the buffer, so a caller copies what it
// keeps.
func (it *Interp) formatPrint(in *ir.Instr, fr *Frame) []byte {
	b := it.printBuf[:0]
	s := in.Str
	argi := 0
	nextArg := func() uint64 {
		if argi < len(in.Args) {
			v := fr.vals[in.Args[argi].ValueID()]
			argi++
			return v
		}
		return 0
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '%' || i+1 >= len(s) {
			b = append(b, s[i])
			continue
		}
		i++
		switch s[i] {
		case 'd':
			b = strconv.AppendInt(b, int64(nextArg()), 10)
		case 'u':
			b = strconv.AppendUint(b, nextArg(), 10)
		case 'x':
			b = strconv.AppendUint(b, nextArg(), 16)
		case 'f':
			b = strconv.AppendFloat(b, f64(nextArg()), 'f', 6, 64)
		case 'g':
			b = strconv.AppendFloat(b, f64(nextArg()), 'g', -1, 64)
		case 'c':
			b = append(b, byte(nextArg()))
		case '%':
			b = append(b, '%')
		default:
			b = append(b, '%', s[i])
		}
	}
	it.printBuf = b
	return b
}
