package interp

import (
	"fmt"
	"strings"

	"privateer/internal/ir"
)

// This file is the tree-walking reference executor: the semantics the
// decoded executor (exec_fast.go) is held to, instruction by instruction.
// It executes every constant where it stands, fuses nothing and charges
// every instruction on its own. It lives in the tests only; NewReference
// (export_test.go) installs it, through execZeroed, as the interpreter's
// reference, which call runs every activation on. Its frame holds zeros
// where the decoded executor's holds the hoisted constants and global
// addresses, so a value the decoder should not have hoisted shows as a
// mismatch.

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

func (it *Interp) phiValue(fr *Frame, phi *ir.Instr, prev *ir.Block) (uint64, error) {
	for i, p := range phi.Preds {
		if p == prev {
			return fr.vals[phi.Args[i].ValueID()], nil
		}
	}
	return 0, fmt.Errorf("interp: phi %s in %s.%s has no incoming for predecessor %v",
		phi, fr.Fn.Name, phi.Blk.Name, prev)
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
		addr, n := arg(0), arg(1)
		if err := it.AS.Fill(addr, n, byte(arg(2))); err != nil {
			return err
		}
		if it.Hooks.OnStore != nil {
			it.Hooks.OnStore(fr, in, addr, int64(n))
		}
	case ir.OpMemCopy:
		dst, src, n := arg(0), arg(1), arg(2)
		if err := it.AS.Copy(dst, src, n); err != nil {
			return err
		}
		if it.Hooks.OnLoad != nil {
			it.Hooks.OnLoad(fr, in, src, int64(n))
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
		v, err := it.builtin(uint64(ir.BuiltinIndex(in.Builtin)), in, fr)
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
