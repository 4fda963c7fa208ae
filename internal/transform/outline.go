package transform

import (
	"fmt"
	"strings"

	"privateer/internal/ir"
)

// Region describes one outlined parallel region.
type Region struct {
	// RegionFn is the driver: params (lo, hi, live-ins...).
	RegionFn *ir.Function
	// IterFn executes one iteration: params (i, live-ins...).
	IterFn *ir.Function
	// LoopName names the original loop for reports.
	LoopName string
}

// Outline extracts loop l from its function (the DOALL step; see the
// package doc). It fails if the loop has no canonical induction variable,
// early exits, live-outs other than the induction variable, non-IV header
// phis, or body phis fed from the header — the shapes DOALL cannot handle;
// a loop it rejects is left as it was.
func Outline(mod *ir.Module, l *ir.Loop) (*Region, error) {
	iv := ir.FindInductionVar(l)
	if iv == nil {
		return nil, fmt.Errorf("no canonical induction variable")
	}
	f := l.Header.Fn
	header := l.Header

	// Moved set: every loop block except the header.
	moved := map[*ir.Block]bool{}
	var movedList []*ir.Block
	for _, b := range l.Blocks {
		if b != header {
			moved[b] = true
			movedList = append(movedList, b)
		}
	}
	if len(movedList) == 0 {
		return nil, fmt.Errorf("outline: loop %s has an empty body", l)
	}
	// Reject early exits: a moved block may only branch to moved blocks or
	// back to the header.
	for _, b := range movedList {
		for _, s := range b.Succs() {
			if s != header && !moved[s] {
				return nil, fmt.Errorf("outline: loop %s has an early exit to %s", l, s.Name)
			}
		}
	}
	// Reject non-IV header phis (checked by deps, re-checked here).
	for _, in := range header.Instrs {
		if in.Op == ir.OpPhi && in != iv.Phi {
			return nil, fmt.Errorf("outline: loop %s carries scalar %s", l, in)
		}
	}
	// Reject values defined in the loop and used outside, other than the
	// IV, whose uses are rewritten to its exit value once nothing can fail.
	inLoop := map[*ir.Instr]bool{}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			inLoop[in] = true
		}
	}
	var ivUses []*ir.Value
	var liveOutErr error
	f.Instrs(func(user *ir.Instr) {
		if inLoop[user] || liveOutErr != nil {
			return
		}
		for i, a := range user.Args {
			def, isInstr := a.(*ir.Instr)
			if !isInstr || !inLoop[def] {
				continue
			}
			if def == iv.Phi {
				ivUses = append(ivUses, &user.Args[i])
				continue
			}
			liveOutErr = fmt.Errorf("outline: loop %s has live-out %s used by %s", l, def, user.Format())
		}
	})
	if liveOutErr != nil {
		return nil, liveOutErr
	}

	// Collect live-ins: operands of moved instructions defined outside the
	// moved set (parameters of f, or instructions outside the loop body),
	// excluding the IV phi.
	var liveIns []ir.Value
	liveIndex := map[ir.Value]int{}
	for _, b := range movedList {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == ir.Value(iv.Phi) {
					continue
				}
				if def, isInstr := a.(*ir.Instr); isInstr {
					if moved[def.Blk] {
						continue
					}
					if def.Blk == header {
						return nil, fmt.Errorf("outline: body uses header-defined %s", def)
					}
				}
				if _, seen := liveIndex[a]; !seen {
					liveIndex[a] = len(liveIns)
					liveIns = append(liveIns, a)
				}
			}
		}
		// Phis fed from the header cannot be outlined.
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				continue
			}
			for _, p := range in.Preds {
				if p == header {
					return nil, fmt.Errorf("outline: body phi %s fed from loop header", in)
				}
			}
		}
	}

	suffix := outlineSuffix(mod, f)

	// --- Build __iter ---
	iterFn := mod.NewFunc("__iter_"+suffix, ir.Void)
	iterFn.EnsureIDCapacity(f.NumValues())
	ivParam := iterFn.NewParam("i", ir.I64)
	liveParams := make([]*ir.Param, len(liveIns))
	for i, v := range liveIns {
		liveParams[i] = iterFn.NewParam(fmt.Sprintf("live%d", i), v.Type())
	}
	// Replace the auto-created entry: body entry first, others after, plus
	// a shared return block for back edges.
	iterFn.Blocks = nil
	retBlk := &ir.Block{Name: "iter.ret", Fn: iterFn}
	order := []*ir.Block{iv.BodyEntry}
	for _, b := range movedList {
		if b != iv.BodyEntry {
			order = append(order, b)
		}
	}
	for _, b := range order {
		b.Fn = iterFn
		iterFn.Blocks = append(iterFn.Blocks, b)
	}
	iterFn.Blocks = append(iterFn.Blocks, retBlk)
	ret := ir.NewBuilder(iterFn)
	ret.SetBlock(retBlk)
	ret.Ret()
	// Remap operands and retarget branches to the header.
	for _, b := range order {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == ir.Value(iv.Phi) {
					in.Args[i] = ivParam
				} else if idx, isLive := liveIndex[a]; isLive {
					in.Args[i] = liveParams[idx]
				}
			}
			for i, t := range in.Targets {
				if t == header {
					in.Targets[i] = retBlk
				}
			}
		}
	}

	// --- Build __region ---
	regionFn := mod.NewFunc("__region_"+suffix, ir.Void)
	lo := regionFn.NewParam("lo", ir.I64)
	hi := regionFn.NewParam("hi", ir.I64)
	regionLive := make([]*ir.Param, len(liveIns))
	for i, v := range liveIns {
		regionLive[i] = regionFn.NewParam(fmt.Sprintf("live%d", i), v.Type())
	}
	{
		bld := ir.NewBuilder(regionFn)
		head := bld.NewBlock("head")
		body := bld.NewBlock("body")
		done := bld.NewBlock("done")
		bld.Br(head)
		bld.SetBlock(head)
		phi := bld.Phi(ir.I64)
		phi.Name = "i"
		bld.CondBr(bld.SLt(phi, hi), body, done)
		bld.SetBlock(body)
		args := make([]ir.Value, 0, 1+len(regionLive))
		args = append(args, phi)
		for _, p := range regionLive {
			args = append(args, p)
		}
		bld.Call(iterFn, args...)
		next := bld.Add(phi, bld.I(1))
		bld.Br(head)
		bld.SetBlock(done)
		bld.Ret()
		ir.AddIncoming(phi, lo, regionFn.Entry())
		ir.AddIncoming(phi, next, body)
	}

	// --- Rewrite f: drop the loop, call the region ---
	callBlk := &ir.Block{Name: "parallel." + suffix, Fn: f}
	{
		bld := ir.NewBuilder(f)
		bld.SetBlock(callBlk)
		args := make([]ir.Value, 0, 2+len(liveIns))
		args = append(args, iv.Init, iv.Limit)
		args = append(args, liveIns...)
		bld.Call(regionFn, args...)
		if len(ivUses) > 0 {
			// The IV leaves the loop at max(init, limit): a loop that runs
			// no iteration exits with its initial value.
			exit := bld.Select(bld.SLt(iv.Init, iv.Limit), iv.Limit, iv.Init)
			for _, use := range ivUses {
				*use = exit
			}
		}
		bld.Br(iv.ExitBlock)
	}
	// Retarget every outside branch aimed at the header, and re-home phi
	// edges that named the header as predecessor (the exit block sees
	// control arrive from the call block now).
	for _, b := range f.Blocks {
		if moved[b] || b == header {
			continue
		}
		if t := b.Terminator(); t != nil {
			for i, tgt := range t.Targets {
				if tgt == header {
					t.Targets[i] = callBlk
				}
			}
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				continue
			}
			for i, p := range in.Preds {
				if p == header {
					in.Preds[i] = callBlk
				}
			}
		}
	}
	// Remove the header and moved blocks from f; append the call block.
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if b == header || moved[b] {
			continue
		}
		kept = append(kept, b)
	}
	f.Blocks = append(kept, callBlk)
	f.Recompute()

	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("outline: outlining broke the module: %w", err)
	}
	return &Region{RegionFn: regionFn, IterFn: iterFn, LoopName: f.Name + ":" + header.Name}, nil
}

// outlineSuffix names the next region outlined from f: f's name and a
// sequence number counted in mod alone, one past the regions mod already
// holds, so compiling one module names its regions the same in every
// process. A number whose __iter_ or __region_ name is taken is skipped.
func outlineSuffix(mod *ir.Module, f *ir.Function) string {
	seq := 1
	for name := range mod.Funcs {
		if strings.HasPrefix(name, "__region_") {
			seq++
		}
	}
	for ; ; seq++ {
		suffix := fmt.Sprintf("%s_%d", f.Name, seq)
		if mod.Funcs["__iter_"+suffix] == nil && mod.Funcs["__region_"+suffix] == nil {
			return suffix
		}
	}
}
