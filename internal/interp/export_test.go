package interp

import (
	"strings"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// The external tests of this package (package interp_test, which may import
// the compile layers) read the decoded form through these helpers.

// RaceEnabled is raceEnabled for the external tests.
const RaceEnabled = raceEnabled

// NewReference returns an interpreter for mod over as that runs on the
// tree-walking reference executor (reference_test.go): the semantics the
// decoded executor is held to, instruction by instruction. Tests compare
// the interpreters New returns against it.
func NewReference(mod *ir.Module, as *vm.AddressSpace) *Interp {
	it := New(mod, as)
	it.reference = execZeroed
	return it
}

// execZeroed runs exec on fr once every slot but the parameters' is zero
// again, undoing the decoded frame image call laid out: the reference then
// reads a value before its definition as 0, whatever the decoder hoisted,
// and a hoist of a value read before its definition shows as a mismatch.
func execZeroed(it *Interp, fr *Frame) (uint64, error) {
slots:
	for i := range fr.vals {
		for _, p := range fr.Fn.Params {
			if p.ValueID() == i {
				continue slots
			}
		}
		fr.vals[i] = 0
	}
	return it.exec(fr)
}

// NewExecutor returns New's interpreter for mod over as, or NewReference's
// when treeWalk is set: the tests that run one program on both executors
// loop over treeWalk.
func NewExecutor(treeWalk bool, mod *ir.Module, as *vm.AddressSpace) *Interp {
	if treeWalk {
		return NewReference(mod, as)
	}
	return New(mod, as)
}

// DecodedEntry is one dispatch of a decoded block: the opcode the loop
// switches on (a fused one spelled "a+b"), the IR instructions it stands for
// and the instruction whose case finishes it.
type DecodedEntry struct {
	Op     string
	Weight int
	Last   *ir.Instr
}

// DecodedBlocks returns, per block of fn, the dispatches the decoded
// executor makes when the block runs to its end.
func DecodedBlocks(p *Program, fn *ir.Function) map[*ir.Block][]DecodedEntry {
	out := map[*ir.Block][]DecodedEntry{}
	code := p.decodedFor(fn).code
	for i := 0; i < len(code); {
		name, k := code[i].op.String(), 1
		for _, f := range fusions {
			if f.op == code[i].op {
				parts := make([]string, len(f.seq))
				for j, op := range f.seq {
					parts[j] = op.String()
				}
				name, k = strings.Join(parts, "+"), len(f.seq)
			}
		}
		if last := code[i+k-1].in; last != nil {
			out[last.Blk] = append(out[last.Blk], DecodedEntry{name, int(code[i].n), last})
		}
		i += k
	}
	return out
}

// ExecutedInPlace lists the OpConst, OpFConst and OpGlobal instructions of fn
// that the decoder left in the code array.
func ExecutedInPlace(p *Program, fn *ir.Function) []*ir.Instr {
	var out []*ir.Instr
	for _, di := range p.decodedFor(fn).code {
		switch di.op {
		case ir.OpConst, ir.OpFConst, ir.OpGlobal:
			out = append(out, di.in)
		}
	}
	return out
}
