package ir

import "fmt"

// Verify checks structural well-formedness of the module: every block ends
// in exactly one terminator, phis agree with predecessors, operand counts
// match opcodes and builtin names, calls match callee signatures, all
// referenced blocks, globals and functions belong to the module, and no
// global, alloca or constant allocation size is negative. It returns the
// first problem found, or nil.
func Verify(m *Module) error {
	if m.Entry() == nil {
		return fmt.Errorf("module %s: no entry function %q", m.Name, m.EntryName)
	}
	for _, name := range m.GlobalNames() {
		if g := m.Globals[name]; g.Size < 0 {
			return fmt.Errorf("module %s: global @%s has negative size %d", m.Name, name, g.Size)
		}
	}
	for _, name := range m.FuncNames() {
		if err := verifyFunc(m.Funcs[name]); err != nil {
			return err
		}
	}
	return nil
}

func verifyFunc(f *Function) error {
	f.Recompute()
	errf := func(in *Instr, format string, args ...interface{}) error {
		loc := f.Name
		if in != nil && in.Blk != nil {
			loc += "." + in.Blk.Name
		}
		return fmt.Errorf("%s: %s: %s", loc, instrString(in, nil), fmt.Sprintf(format, args...))
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s.%s: empty block", f.Name, b.Name)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return errf(in, "block does not end in a terminator")
				}
				return errf(in, "terminator in block interior")
			}
			if in.Blk != b {
				return errf(in, "wrong block back-pointer")
			}
			for _, a := range in.Args {
				switch v := a.(type) {
				case nil:
					return errf(in, "nil operand")
				case *Instr:
					if v.Blk == nil || v.Blk.Fn != f {
						return errf(in, "operand %s defined in another function", v)
					}
				case *Param:
					if v.Fn != f {
						return errf(in, "operand %s is a parameter of another function", v)
					}
				}
			}
			if err := verifyArity(in, errf); err != nil {
				return err
			}
			switch in.Op {
			case OpPhi:
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return errf(in, "phi after non-phi instruction")
				}
				if len(in.Args) != len(in.Preds) {
					return errf(in, "phi args/preds mismatch: %d vs %d", len(in.Args), len(in.Preds))
				}
				for _, p := range in.Preds {
					if !containsBlock(b.Preds(), p) {
						return errf(in, "phi incoming from non-predecessor %s", p.Name)
					}
				}
			case OpCall:
				if in.Callee == nil {
					return errf(in, "call with nil callee")
				}
				if f.Mod.Funcs[in.Callee.Name] != in.Callee {
					return errf(in, "callee %q not in module", in.Callee.Name)
				}
				if len(in.Args) != len(in.Callee.Params) {
					return errf(in, "call arity %d, callee %q wants %d",
						len(in.Args), in.Callee.Name, len(in.Callee.Params))
				}
			case OpAlloca:
				if in.Size < 0 {
					return errf(in, "negative alloca size %d", in.Size)
				}
			case OpMalloc, OpHAlloc:
				if c, ok := in.Args[0].(*Instr); ok && c.Op == OpConst && int64(c.Const) < 0 {
					return errf(in, "negative allocation size %d", int64(c.Const))
				}
			case OpBuiltin:
				if k := BuiltinIndex(in.Builtin); k < len(Builtins) && len(in.Args) < Builtins[k].Operands {
					return errf(in, "builtin !%s wants %d operands, has %d",
						in.Builtin, Builtins[k].Operands, len(in.Args))
				}
			case OpGlobal:
				if in.GlobalRef == nil || f.Mod.Globals[in.GlobalRef.Name] != in.GlobalRef {
					return errf(in, "global reference not in module")
				}
			case OpLoad, OpStore, OpPrivateRead, OpPrivateWrite,
				OpPrivateReadSpan, OpPrivateWriteSpan:
				switch in.Size {
				case 1, 2, 4, 8:
				default:
					return errf(in, "bad access size %d", in.Size)
				}
			case OpRet:
				if f.RetType == Void && len(in.Args) != 0 {
					return errf(in, "value return from void function")
				}
				if f.RetType != Void && len(in.Args) != 1 {
					return errf(in, "missing return value")
				}
			case OpCondBr, OpBr:
				for _, t := range in.Targets {
					if t.Fn != f {
						return errf(in, "branch to block of another function")
					}
				}
			}
		}
	}
	return nil
}

func verifyArity(in *Instr, errf func(*Instr, string, ...interface{}) error) error {
	if in.Op == OpInvalid {
		return errf(in, "invalid opcode")
	}
	if want := in.Op.Arity(); want >= 0 && len(in.Args) != want {
		return errf(in, "op %s wants %d operands, has %d", in.Op, want, len(in.Args))
	}
	switch in.Op {
	case OpBr:
		// Br has zero value operands; re-check targets instead.
		if len(in.Args) != 0 || len(in.Targets) != 1 {
			return errf(in, "br wants 0 operands and 1 target")
		}
	case OpCondBr:
		if len(in.Targets) != 2 {
			return errf(in, "condbr wants 2 targets")
		}
	}
	return nil
}
