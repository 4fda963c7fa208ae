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
// error for a φ reached along an edge it has no value for.
func phiEdgeError(fr *Frame, phi *ir.Instr, prev *ir.Block) error {
	return fmt.Errorf("interp: phi %s in %s.%s has no incoming for predecessor %v",
		phi, fr.Fn.Name, phi.Blk.Name, prev)
}

// runEdge performs the parallel φ-copy of edge e (all reads before all
// writes, so φs may reference each other).
func runEdge(vals []uint64, e *phiEdge) {
	cs := e.copies
	if len(cs) == 1 {
		vals[cs[0].dst] = vals[cs[0].src]
		return
	}
	var tmp [8]uint64
	buf := tmp[:0]
	for i := range cs {
		buf = append(buf, vals[cs[i].src])
	}
	for i := range cs {
		vals[cs[i].dst] = buf[i]
	}
}

// execDecoded runs fr's activation over code, df.code or a stop run of it
// (see stopRun), from pc, with steps the count charged through the end of
// pc's block. It is observably identical to exec (the tree-walking
// reference executor): same step counts, same hook sequence, same errors,
// same output. Operand slots index fr.vals directly; the hoisted constants
// and global addresses are in their slots since frame setup. Steps are
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
		di := &code[pc]
		switch di.op {
		case ir.OpConst, ir.OpFConst:
			vals[di.dst] = di.cnst
		// A fused opcode executes its leading components in place, steps to
		// its last and falls through to that one's own case.
		case opMulAdd:
			vals[di.dst] = vals[di.a] * vals[di.b]
			pc++
			di = &code[pc]
			fallthrough
		case ir.OpAdd:
			vals[di.dst] = vals[di.a] + vals[di.b]
		case ir.OpSub:
			vals[di.dst] = vals[di.a] - vals[di.b]
		case ir.OpMul:
			vals[di.dst] = vals[di.a] * vals[di.b]
		case ir.OpSDiv:
			d := vals[di.b]
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: division by zero (%s)", di.in.Format())
			}
			vals[di.dst] = uint64(int64(vals[di.a]) / int64(d))
		case ir.OpUDiv:
			d := vals[di.b]
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: division by zero (%s)", di.in.Format())
			}
			vals[di.dst] = vals[di.a] / d
		case ir.OpSRem:
			d := vals[di.b]
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: remainder by zero (%s)", di.in.Format())
			}
			vals[di.dst] = uint64(int64(vals[di.a]) % int64(d))
		case ir.OpURem:
			d := vals[di.b]
			if d == 0 {
				it.Steps = steps - int64(di.rest)
				return 0, fmt.Errorf("interp: remainder by zero (%s)", di.in.Format())
			}
			vals[di.dst] = vals[di.a] % d
		case ir.OpAnd:
			vals[di.dst] = vals[di.a] & vals[di.b]
		case ir.OpOr:
			vals[di.dst] = vals[di.a] | vals[di.b]
		case ir.OpXor:
			vals[di.dst] = vals[di.a] ^ vals[di.b]
		case ir.OpShl:
			vals[di.dst] = vals[di.a] << (vals[di.b] & 63)
		case ir.OpLShr:
			vals[di.dst] = vals[di.a] >> (vals[di.b] & 63)
		case ir.OpAShr:
			vals[di.dst] = uint64(int64(vals[di.a]) >> (vals[di.b] & 63))
		case ir.OpEq:
			vals[di.dst] = b2w(vals[di.a] == vals[di.b])
		case ir.OpNe:
			vals[di.dst] = b2w(vals[di.a] != vals[di.b])
		case ir.OpSLt:
			vals[di.dst] = b2w(int64(vals[di.a]) < int64(vals[di.b]))
		case ir.OpSLe:
			vals[di.dst] = b2w(int64(vals[di.a]) <= int64(vals[di.b]))
		case ir.OpSGt:
			vals[di.dst] = b2w(int64(vals[di.a]) > int64(vals[di.b]))
		case ir.OpSGe:
			vals[di.dst] = b2w(int64(vals[di.a]) >= int64(vals[di.b]))
		case ir.OpULt:
			vals[di.dst] = b2w(vals[di.a] < vals[di.b])
		case ir.OpUGe:
			vals[di.dst] = b2w(vals[di.a] >= vals[di.b])
		case ir.OpSIToFP:
			vals[di.dst] = bits(float64(int64(vals[di.a])))
		case ir.OpFPToSI:
			vals[di.dst] = uint64(int64(f64(vals[di.a])))
		case opFMulFAdd:
			vals[di.dst] = bits(f64(vals[di.a]) * f64(vals[di.b]))
			pc++
			di = &code[pc]
			fallthrough
		case ir.OpFAdd:
			vals[di.dst] = bits(f64(vals[di.a]) + f64(vals[di.b]))
		case ir.OpFSub:
			vals[di.dst] = bits(f64(vals[di.a]) - f64(vals[di.b]))
		case ir.OpFMul:
			vals[di.dst] = bits(f64(vals[di.a]) * f64(vals[di.b]))
		case ir.OpFDiv:
			vals[di.dst] = bits(f64(vals[di.a]) / f64(vals[di.b]))
		case ir.OpFEq:
			vals[di.dst] = b2w(f64(vals[di.a]) == f64(vals[di.b]))
		case ir.OpFLt:
			vals[di.dst] = b2w(f64(vals[di.a]) < f64(vals[di.b]))
		case ir.OpFLe:
			vals[di.dst] = b2w(f64(vals[di.a]) <= f64(vals[di.b]))
		case ir.OpFGt:
			vals[di.dst] = b2w(f64(vals[di.a]) > f64(vals[di.b]))
		case ir.OpFGe:
			vals[di.dst] = b2w(f64(vals[di.a]) >= f64(vals[di.b]))
		case ir.OpSelect:
			if vals[di.a] != 0 {
				vals[di.dst] = vals[di.b]
			} else {
				vals[di.dst] = vals[di.c]
			}
		case ir.OpPtrToInt, ir.OpIntToPtr:
			vals[di.dst] = vals[di.a]
		case opMulAddMulAddLoad:
			vals[di.dst] = vals[di.a] * vals[di.b]
			pc++
			di = &code[pc]
			vals[di.dst] = vals[di.a] + vals[di.b]
			pc++
			di = &code[pc]
			fallthrough
		case opMulAddLoad:
			vals[di.dst] = vals[di.a] * vals[di.b]
			pc++
			di = &code[pc]
			fallthrough
		case opAddLoad:
			vals[di.dst] = vals[di.a] + vals[di.b]
			pc++
			di = &code[pc]
			fallthrough
		case ir.OpLoad:
			addr := vals[di.a]
			v, err := it.AS.Read(addr, int64(di.cnst))
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			vals[di.dst] = v
			if mask&hLoad != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnLoad(fr, di.in, addr, int64(di.cnst))
			}
		case ir.OpStore:
			addr := vals[di.b]
			if err := it.AS.Write(addr, int64(di.cnst), vals[di.a]); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			if mask&hStore != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnStore(fr, di.in, addr, int64(di.cnst))
			}
		// A terminator's rest is 0: ret, br and condbr store steps as it is.
		case ir.OpRet:
			it.Steps = steps
			if di.a != noSlot {
				return vals[di.a], nil
			}
			return 0, nil
		case opAddBr:
			vals[di.dst] = vals[di.a] + vals[di.b]
			pc++
			di = &code[pc]
			fallthrough
		case ir.OpBr:
			if mask&hBlock != 0 {
				it.Steps = steps
				hooks.OnBlock(fr, di.in.Blk, di.in.Targets[0])
			}
			if di.e0 >= 0 {
				e := &df.edges[di.e0]
				if e.badPhi != nil {
					it.Steps = steps
					return 0, phiEdgeError(fr, e.badPhi, di.in.Blk)
				}
				runEdge(vals, e)
			}
			pc = di.t0
			if steps += code[pc].charge(); steps > limit {
				at = pc
				break dispatch
			}
			continue
		case opSLtCondBr:
			vals[di.dst] = b2w(int64(vals[di.a]) < int64(vals[di.b]))
			pc++
			di = &code[pc]
			fallthrough
		case ir.OpCondBr:
			to, eid := di.t1, di.e1
			taken := vals[di.a] != 0
			if taken {
				to, eid = di.t0, di.e0
			}
			if mask&hBlock != 0 {
				it.Steps = steps
				hooks.OnBlock(fr, di.in.Blk, di.in.Targets[b2w(!taken)])
			}
			if eid >= 0 {
				e := &df.edges[eid]
				if e.badPhi != nil {
					it.Steps = steps
					return 0, phiEdgeError(fr, e.badPhi, di.in.Blk)
				}
				runEdge(vals, e)
			}
			pc = to
			if steps += code[pc].charge(); steps > limit {
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
			vals[di.dst] = addr
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, di.cnst)
			}
		case ir.OpMalloc:
			size := vals[di.a]
			addr, err := it.AS.Alloc(ir.HeapSystem, size)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			vals[di.dst] = addr
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, size)
			}
		case ir.OpHAlloc:
			size := vals[di.a]
			addr, err := it.AS.Alloc(di.in.Heap, size)
			if err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
			vals[di.dst] = addr
			if mask&hAlloc != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnAlloc(fr, di.in, addr, size)
			}
		case ir.OpFree, ir.OpHDealloc:
			addr := vals[di.a]
			if mask&hFree != 0 {
				it.Steps = steps - int64(di.rest)
				hooks.OnFree(fr, di.in, addr)
			}
			if err := it.AS.Free(addr); err != nil {
				it.Steps = steps - int64(di.rest)
				return 0, err
			}
		case ir.OpGlobal:
			vals[di.dst] = it.globalAddrs[di.cnst]
		case ir.OpCall:
			it.Steps = steps - int64(di.rest)
			v, err := it.callInstr(fr, di.in)
			if err != nil {
				return 0, err
			}
			vals[di.dst] = v
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
			vals[di.dst] = v
		case ir.OpCheckHeap:
			if it.ChecksOff {
				break
			}
			it.SepChecks++
			if addr := vals[di.a]; addr != 0 && ir.HeapOf(addr) != di.in.Heap {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Addr: addr, Reason: sepViolated}
			}
		case ir.OpPrivateRead, ir.OpPrivateWrite:
			if it.Spec != nil {
				it.Steps = steps - int64(di.rest)
				if err := it.Spec.Private(di.in, vals[di.a], 1, int64(di.cnst), int64(di.cnst),
					di.op == ir.OpPrivateWrite); err != nil {
					return 0, err
				}
			}
		case ir.OpPrivateReadSpan, ir.OpPrivateWriteSpan:
			if it.Spec != nil {
				it.Steps = steps - int64(di.rest)
				if err := it.Spec.Private(di.in, vals[di.a], int64(vals[di.b]), int64(vals[di.c]),
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
			if vals[di.a] != vals[di.b] {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Reason: predictFailed}
			}
		case ir.OpMisspec:
			if !it.ChecksOff {
				it.Steps = steps - int64(di.rest)
				return 0, &MisspecError{Instr: di.in, Reason: controlViolated}
			}
		case ir.OpMemSet:
			addr, n, b := vals[di.a], vals[di.b], byte(vals[di.c])
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
			dst, src, n := vals[di.a], vals[di.b], vals[di.c]
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
		case opUnterminated:
			it.Steps = steps - int64(di.rest)
			return 0, fmt.Errorf("interp: unterminated block in %s", fr.Fn.Name)
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
// terminator, as the block's last entry is never before the stop, so it
// ends at the stop or, when a call in it moved Steps back under the budget,
// goes back to df.code through the stop.
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
