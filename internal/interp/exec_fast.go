package interp

import (
	"fmt"
	"strings"

	"privateer/internal/ir"
)

// Active-hook bitmask: computed once per activation so the decoded dispatch
// loop tests a register instead of a function pointer per hook per
// instruction. With zero hooks installed (sequential reference runs) every
// hook branch is a single well-predicted test. The checks need no bit: they
// execute inline, and the privacy checks test Interp.Spec where they stand.
const (
	hBlock = 1 << iota
	hLoad
	hStore
	hAlloc
	hFree
	hPrint
)

// computeHookMask derives the active-hook bitmask from the Hooks structure.
// OnEnter/OnExit and CallOverride fire per activation, not per instruction,
// and keep their plain nil checks.
func (it *Interp) computeHookMask() uint32 {
	h := &it.Hooks
	var m uint32
	if h.OnBlock != nil {
		m |= hBlock
	}
	if h.OnLoad != nil {
		m |= hLoad
	}
	if h.OnStore != nil {
		m |= hStore
	}
	if h.OnAlloc != nil {
		m |= hAlloc
	}
	if h.OnFree != nil {
		m |= hFree
	}
	if h.OnPrint != nil {
		m |= hPrint
	}
	return m
}

// phiEdgeError reproduces the tree-walking executor's missing-incoming
// error for a φ of fn reached along an edge it has no value for.
func phiEdgeError(fn *ir.Function, phi *ir.Instr, prev *ir.Block) error {
	return fmt.Errorf("interp: phi %s in %s.%s has no incoming for predecessor %v",
		phi, fn.Name, phi.Blk.Name, prev)
}

// runEdge performs the parallel φ-copy cs of one edge: every read before
// any write, so φs may reference each other. It stays small enough to inline
// into the dispatch loop; a shortcut for the one-copy edge put it over the
// inliner's budget, and the call then cost more than the shortcut saved.
func runEdge(vals []uint64, cs []phiCopy) {
	var tmp [8]uint64
	buf := tmp[:0]
	for _, c := range cs {
		buf = append(buf, slot(vals, c.src))
	}
	for i, c := range cs {
		setSlot(vals, c.dst, buf[i])
	}
}

// execDecoded runs fr's activation over code, df.code or a stop run of it
// (see stopRun), from pc, with steps the count charged through the end of
// pc's block. It is observably identical to exec (the tree-walking
// reference executor): same step counts, same hook sequence, same errors,
// same output. Operand slots index fr.vals directly, and entries code,
// through the unchecked accessors of unchecked.go, which decode's proof
// makes safe; the hoisted constants and global addresses are in their
// slots since frame setup. Steps are
// charged per block, not per dispatch: entering a block (at function entry
// and on every taken branch) adds its whole weight to steps and compares
// once against the budget, so while entry di runs the exact count is steps -
// di.rest, and that is what every hook, Speculator call, call, error and
// return stores in Interp.Steps. A call may move Steps; after one, steps is
// reloaded and compared again. A block whose charge passes the budget, or
// the rest of one after a call that returns past it, runs on a stop run,
// which ends where the budget runs out, in a nested execDecoded, so code
// stays fixed for the whole loop.
func (it *Interp) execDecoded(fr *Frame, df *decodedFunc, code []dinstr, pc int32, steps int64) (uint64, error) {
	vals := fr.vals
	hooks := &it.Hooks
	mask := it.hookMask
	limit := it.stepLimit()
	var at int32
dispatch:
	for {
		di := entryAt(code, pc)
		switch di.op {
		case ir.OpConst, ir.OpFConst:
			setSlot(vals, di.dst, di.cnst)
		// A fused opcode executes its leading components in place, steps to
		// its last and falls through to that one's own case.
		case opMulAdd:
			setSlot(vals, di.dst, slot(vals, di.a)*slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case ir.OpAdd:
			setSlot(vals, di.dst, slot(vals, di.a)+slot(vals, di.b))
		case ir.OpSub:
			setSlot(vals, di.dst, slot(vals, di.a)-slot(vals, di.b))
		case ir.OpMul:
			setSlot(vals, di.dst, slot(vals, di.a)*slot(vals, di.b))
		case ir.OpSDiv:
			d := slot(vals, di.b)
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: division by zero (%s)", di.in.Format())
			}
			setSlot(vals, di.dst, uint64(int64(slot(vals, di.a))/int64(d)))
		case ir.OpUDiv:
			d := slot(vals, di.b)
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: division by zero (%s)", di.in.Format())
			}
			setSlot(vals, di.dst, slot(vals, di.a)/d)
		case ir.OpSRem:
			d := slot(vals, di.b)
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: remainder by zero (%s)", di.in.Format())
			}
			setSlot(vals, di.dst, uint64(int64(slot(vals, di.a))%int64(d)))
		case ir.OpURem:
			d := slot(vals, di.b)
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: remainder by zero (%s)", di.in.Format())
			}
			setSlot(vals, di.dst, slot(vals, di.a)%d)
		case ir.OpAnd:
			setSlot(vals, di.dst, slot(vals, di.a)&slot(vals, di.b))
		case ir.OpOr:
			setSlot(vals, di.dst, slot(vals, di.a)|slot(vals, di.b))
		case ir.OpXor:
			setSlot(vals, di.dst, slot(vals, di.a)^slot(vals, di.b))
		case ir.OpShl:
			setSlot(vals, di.dst, slot(vals, di.a)<<(slot(vals, di.b)&63))
		case ir.OpLShr:
			setSlot(vals, di.dst, slot(vals, di.a)>>(slot(vals, di.b)&63))
		case ir.OpAShr:
			setSlot(vals, di.dst, uint64(int64(slot(vals, di.a))>>(slot(vals, di.b)&63)))
		case ir.OpEq:
			setSlot(vals, di.dst, b2w(slot(vals, di.a) == slot(vals, di.b)))
		case ir.OpNe:
			setSlot(vals, di.dst, b2w(slot(vals, di.a) != slot(vals, di.b)))
		case ir.OpSLt:
			setSlot(vals, di.dst, b2w(int64(slot(vals, di.a)) < int64(slot(vals, di.b))))
		case ir.OpSLe:
			setSlot(vals, di.dst, b2w(int64(slot(vals, di.a)) <= int64(slot(vals, di.b))))
		case ir.OpSGt:
			setSlot(vals, di.dst, b2w(int64(slot(vals, di.a)) > int64(slot(vals, di.b))))
		case ir.OpSGe:
			setSlot(vals, di.dst, b2w(int64(slot(vals, di.a)) >= int64(slot(vals, di.b))))
		case ir.OpULt:
			setSlot(vals, di.dst, b2w(slot(vals, di.a) < slot(vals, di.b)))
		case ir.OpUGe:
			setSlot(vals, di.dst, b2w(slot(vals, di.a) >= slot(vals, di.b)))
		case ir.OpSIToFP:
			setSlot(vals, di.dst, bits(float64(int64(slot(vals, di.a)))))
		case ir.OpFPToSI:
			setSlot(vals, di.dst, uint64(int64(f64(slot(vals, di.a)))))
		case opFMulFAdd:
			setSlot(vals, di.dst, bits(f64(slot(vals, di.a))*f64(slot(vals, di.b))))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case ir.OpFAdd:
			setSlot(vals, di.dst, bits(f64(slot(vals, di.a))+f64(slot(vals, di.b))))
		case ir.OpFSub:
			setSlot(vals, di.dst, bits(f64(slot(vals, di.a))-f64(slot(vals, di.b))))
		case ir.OpFMul:
			setSlot(vals, di.dst, bits(f64(slot(vals, di.a))*f64(slot(vals, di.b))))
		case ir.OpFDiv:
			setSlot(vals, di.dst, bits(f64(slot(vals, di.a))/f64(slot(vals, di.b))))
		case ir.OpFEq:
			setSlot(vals, di.dst, b2w(f64(slot(vals, di.a)) == f64(slot(vals, di.b))))
		case ir.OpFLt:
			setSlot(vals, di.dst, b2w(f64(slot(vals, di.a)) < f64(slot(vals, di.b))))
		case ir.OpFLe:
			setSlot(vals, di.dst, b2w(f64(slot(vals, di.a)) <= f64(slot(vals, di.b))))
		case ir.OpFGt:
			setSlot(vals, di.dst, b2w(f64(slot(vals, di.a)) > f64(slot(vals, di.b))))
		case ir.OpFGe:
			setSlot(vals, di.dst, b2w(f64(slot(vals, di.a)) >= f64(slot(vals, di.b))))
		case ir.OpSelect:
			if slot(vals, di.a) != 0 {
				setSlot(vals, di.dst, slot(vals, di.b))
			} else {
				setSlot(vals, di.dst, slot(vals, di.c))
			}
		case ir.OpPtrToInt, ir.OpIntToPtr:
			setSlot(vals, di.dst, slot(vals, di.a))
		case opMulAddMulAddLoad:
			setSlot(vals, di.dst, slot(vals, di.a)*slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			setSlot(vals, di.dst, slot(vals, di.a)+slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case opMulAddLoad:
			setSlot(vals, di.dst, slot(vals, di.a)*slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case opAddLoad:
			setSlot(vals, di.dst, slot(vals, di.a)+slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case ir.OpLoad:
			// An 8-byte load the read TLB holds is done here; everything
			// else goes through Read, which counts and faults.
			addr := slot(vals, di.a)
			v, hit := uint64(0), false
			if di.cnst == 8 {
				v, hit = it.AS.ReadHit8(addr)
			}
			if !hit {
				var err error
				if v, err = it.AS.Read(addr, int64(di.cnst)); err != nil {
					it.Steps = steps - int64(di.rest)
					return 0, err
				}
			}
			setSlot(vals, di.dst, v)
			if mask&hLoad != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnLoad(fr, di.in, addr, int64(di.cnst))
			}
		case ir.OpStore:
			addr, v := slot(vals, di.b), slot(vals, di.a)
			if di.cnst != 8 || !it.AS.WriteHit8(addr, v) {
				if err := it.AS.Write(addr, int64(di.cnst), v); err != nil {
					it.Steps = steps - int64(di.rest)
					return 0, err
				}
			}
			if mask&hStore != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnStore(fr, di.in, addr, int64(di.cnst))
			}
		// A terminator's rest is 0: ret, br and condbr store steps as it is.
		case ir.OpRet:
			it.Steps = steps
			if di.a != noSlot {
				return slot(vals, di.a), nil
			}
			return 0, nil
		case opAddBr:
			setSlot(vals, di.dst, slot(vals, di.a)+slot(vals, di.b))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case ir.OpBr:
			if mask&hBlock != 0 {
				it.Steps = steps
				hooks.OnBlock(fr, di.in.Blk, di.in.Targets[0])
			}
			if di.e0 >= 0 {
				e := &df.edges[di.e0]
				if e.guard >= 0 {
					it.Steps = steps
					return 0, df.guards[e.guard]
				}
				runEdge(vals, e.copies)
			}
			pc = di.t0
			if steps += entryAt(code, pc).charge(); steps > limit {
				at = pc
				break dispatch
			}
			continue
		case opSLtCondBr:
			setSlot(vals, di.dst, b2w(int64(slot(vals, di.a)) < int64(slot(vals, di.b))))
			pc++
			di = entryAt(code, pc)
			fallthrough
		case ir.OpCondBr:
			to, eid := di.t1, di.e1
			taken := slot(vals, di.a) != 0
			if taken {
				to, eid = di.t0, di.e0
			}
			if mask&hBlock != 0 {
				it.Steps = steps
				hooks.OnBlock(fr, di.in.Blk, di.in.Targets[b2w(!taken)])
			}
			if eid >= 0 {
				e := &df.edges[eid]
				if e.guard >= 0 {
					it.Steps = steps
					return 0, df.guards[e.guard]
				}
				runEdge(vals, e.copies)
			}
			pc = to
			if steps += entryAt(code, pc).charge(); steps > limit {
				at = pc
				break dispatch
			}
			continue
		case ir.OpAlloca:
			addr, err := it.AS.Alloc(ir.HeapSystem, di.cnst)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			fr.allocas = append(fr.allocas, addr)
			setSlot(vals, di.dst, addr)
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, di.cnst)
			}
		case ir.OpMalloc:
			size := slot(vals, di.a)
			addr, err := it.AS.Alloc(ir.HeapSystem, size)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			setSlot(vals, di.dst, addr)
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, size)
			}
		case ir.OpHAlloc:
			size := slot(vals, di.a)
			addr, err := it.AS.Alloc(di.in.Heap, size)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			setSlot(vals, di.dst, addr)
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, size)
			}
		case ir.OpFree, ir.OpHDealloc:
			addr := slot(vals, di.a)
			if mask&hFree != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnFree(fr, di.in, addr)
			}
			if err := it.AS.Free(addr); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
		case ir.OpGlobal:
			setSlot(vals, di.dst, it.globalAddrs[di.cnst])
		case ir.OpCall:
			it.Steps = steps - int64(di.rest)
			v, err := it.callInstr(fr, di.in)
			if err != nil {
				return 0, err
			}
			setSlot(vals, di.dst, v)
			if steps = it.Steps + int64(di.rest); steps > limit {
				at = di.t0 + 1
				break dispatch
			}
		case ir.OpBuiltin:
			v, err := it.builtin(di.cnst, di.in, fr)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			setSlot(vals, di.dst, v)
		case ir.OpCheckHeap:
			if it.ChecksOff {
				break
			}
			it.SepChecks++
			if addr := slot(vals, di.a); addr != 0 && ir.HeapOf(addr) != di.in.Heap {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Addr: addr, Reason: sepViolated}
			}
		case ir.OpPrivateRead, ir.OpPrivateWrite:
			if it.Spec != nil {
				it.Steps = steps - int64(di.rest)
				if err := it.Spec.Private(di.in, slot(vals, di.a), 1, int64(di.cnst), int64(di.cnst),
					di.op == ir.OpPrivateWrite); err != nil {
					return 0, err
				}
			}
		case ir.OpPrivateReadSpan, ir.OpPrivateWriteSpan:
			if it.Spec != nil {
				it.Steps = steps - int64(di.rest)
				if err := it.Spec.Private(di.in, slot(vals, di.a), int64(slot(vals, di.b)), int64(slot(vals, di.c)),
					int64(di.cnst), di.op == ir.OpPrivateWriteSpan); err != nil {
					return 0, err
				}
			}
		case ir.OpReduxWrite:
			// A marker only: separation into the redux heap is check_heap's.
		case ir.OpPredict:
			if it.ChecksOff {
				break
			}
			it.Predictions++
			if slot(vals, di.a) != slot(vals, di.b) {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Reason: predictFailed}
			}
		case ir.OpMisspec:
			if !it.ChecksOff {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Reason: controlViolated}
			}
		case ir.OpMemSet:
			addr, n, b := slot(vals, di.a), slot(vals, di.b), byte(slot(vals, di.c))
			buf := it.scratchBytes(n)
			for i := range buf {
				buf[i] = b
			}
			if err := it.AS.WriteBytes(addr, buf); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			if mask&hStore != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnStore(fr, di.in, addr, int64(n))
			}
		case ir.OpMemCopy:
			dst, src, n := slot(vals, di.a), slot(vals, di.b), slot(vals, di.c)
			buf := it.scratchBytes(n)
			if err := it.AS.ReadBytes(src, buf); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			if mask&hLoad != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnLoad(fr, di.in, src, int64(n))
			}
			if err := it.AS.WriteBytes(dst, buf); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			if mask&hStore != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnStore(fr, di.in, dst, int64(n))
			}
		case ir.OpPrint:
			text := it.formatPrint(di.in, fr)
			it.Steps = steps - int64(di.rest)
			if mask&hPrint == 0 || !hooks.OnPrint(di.in, string(text)) {
				if it.Out == nil {
					it.Out = &strings.Builder{}
				}
				it.Out.Write(text)
			}
		case opGuard:
			it.Steps = steps - int64(di.rest)
			return 0, df.guards[di.cnst]
		case opStop:
			// The entry the budget runs out in: it stands for n steps, of
			// which the first would be count + 1.
			if count := steps - int64(di.rest); count+int64(di.n) > limit {
				it.Steps = max(count, limit) + 1
				return 0, stepLimitError(limit, fr)
			}
			// A call moved Steps back: the block goes on from the entry.
			at = di.t0
			break dispatch
		default:
			// A φ below a non-φ, or an opcode no executor knows.
			it.Steps = steps - int64(di.rest)
			return 0, fmt.Errorf("interp: cannot execute %s", di.in.Format())
		}
		pc++
	}
	// The block goes on from df.code[at], charged to steps: on a stop run if
	// that passes the budget, else (a call in a stop run moved Steps back)
	// on df.code itself.
	if steps > limit {
		return it.execDecoded(fr, df, stopRun(df, at, steps, limit), 0, steps)
	}
	return it.execDecoded(fr, df, df.code, at, steps)
}

// stopRun returns the code that runs a block of df from its entry at,
// df.code[at], with the block charged to steps, past limit: copies of the
// entries before the one in which the count first passes limit, each
// executing its own instruction (fused opcodes split into their
// components), then an opStop entry for that one. The run holds no
// terminator or guard entry, as the block's last entry to run (rest 0) is
// never before the stop, so it ends at the stop or, when a call in it moved
// Steps back under the budget, goes back to df.code through the stop.
func stopRun(df *decodedFunc, at int32, steps, limit int64) []dinstr {
	code := df.code
	stop := at
	n, rest := own(code, stop)
	for steps-int64(rest) <= limit {
		stop++
		n, rest = own(code, stop)
	}
	run := make([]dinstr, stop-at+1)
	copy(run, code[at:stop])
	for i := range run[:stop-at] {
		run[i].op = run[i].in.Op
	}
	run[stop-at] = dinstr{op: opStop, n: n, rest: rest + n, t0: stop}
	return run
}

// own returns the weight and rest of code[pc] by itself: on a fused opcode,
// those of its first component alone.
func own(code []dinstr, pc int32) (n, rest int32) {
	d := &code[pc]
	if d.in == nil || d.op == d.in.Op {
		return d.n, d.rest
	}
	next := &code[pc+1]
	return d.n + d.rest - next.n - next.rest, next.n + next.rest
}
