// Package analysis implements conservative static analyses over Privateer
// IR: an Andersen-style, allocation-site-based, field-insensitive points-to
// analysis and an affine access-pattern analysis for canonical loops.
//
// These are the "static analysis" of the paper's comparison: strong enough
// to parallelize regular array kernels (the DOALL-only baseline of Figure 7)
// and to elide provably redundant separation checks (section 4.5), but —
// deliberately, as in the paper — defeated by pointer indirection, dynamic
// allocation and irregular data structures, which is exactly the gap
// speculative separation closes.
package analysis

import (
	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// Unknown is the abstract object standing for anything the analysis cannot
// name: unresolved integers used as pointers, external memory, or null.
var Unknown = profiling.Object{}

// PointsTo is the result of the whole-module points-to analysis.
type PointsTo struct {
	// valueSets maps every SSA value (per function, by value ID) to its
	// points-to set.
	valueSets map[*ir.Function][]profiling.ObjectSet
	// heapSets maps each abstract object to the points-to set of the
	// pointers stored inside it (field-insensitive).
	heapSets map[profiling.Object]profiling.ObjectSet
}

// unknownSet is the one set every value without recorded targets shares.
var unknownSet = profiling.ObjectSet{Unknown: true}

// ValueObjects returns the abstract objects v may point to within f. A set
// containing Unknown may point anywhere. The result is the analysis' own set,
// shared by every caller: it is read-only, and a caller that needs to change
// it must copy it first.
func (pt *PointsTo) ValueObjects(f *ir.Function, v ir.Value) profiling.ObjectSet {
	sets := pt.valueSets[f]
	if v.ValueID() < len(sets) && len(sets[v.ValueID()]) > 0 {
		return sets[v.ValueID()]
	}
	// A value with no recorded targets is not a proven-null pointer; treat
	// it as unknown.
	return unknownSet
}

// MayAlias reports whether values a and b (in functions fa and fb) may
// reference overlapping storage.
func (pt *PointsTo) MayAlias(fa *ir.Function, a ir.Value, fb *ir.Function, b ir.Value) bool {
	sa := pt.ValueObjects(fa, a)
	sb := pt.ValueObjects(fb, b)
	if sa[Unknown] || sb[Unknown] {
		return true
	}
	for o := range sa {
		if sb[o] {
			return true
		}
	}
	return false
}

// ComputePointsTo runs the Andersen-style analysis over the module to a
// fixpoint. Direct calls are handled context-insensitively; every value is
// tracked regardless of static type, since integers may carry disguised
// pointers through casts.
func ComputePointsTo(m *ir.Module) *PointsTo {
	pt := &PointsTo{
		valueSets: map[*ir.Function][]profiling.ObjectSet{},
		heapSets:  map[profiling.Object]profiling.ObjectSet{},
	}
	for _, f := range m.SortedFuncs() {
		sets := make([]profiling.ObjectSet, f.NumValues())
		for i := range sets {
			sets[i] = profiling.ObjectSet{}
		}
		pt.valueSets[f] = sets
	}
	heapSet := func(o profiling.Object) profiling.ObjectSet {
		s := pt.heapSets[o]
		if s == nil {
			s = profiling.ObjectSet{}
			pt.heapSets[o] = s
		}
		return s
	}

	// Iterate transfer functions to a fixpoint. Module sizes are small, so
	// a simple round-robin pass is adequate.
	for changed := true; changed; {
		changed = false
		flowInto := func(dst profiling.ObjectSet, src profiling.ObjectSet) {
			for o := range src {
				if dst.Add(o) {
					changed = true
				}
			}
		}
		for _, f := range m.SortedFuncs() {
			sets := pt.valueSets[f]
			get := func(v ir.Value) profiling.ObjectSet { return sets[v.ValueID()] }
			f.Instrs(func(in *ir.Instr) {
				switch in.Op {
				case ir.OpAlloca, ir.OpMalloc, ir.OpHAlloc:
					if get(in).Add(profiling.Object{Site: in}) {
						changed = true
					}
				case ir.OpGlobal:
					if get(in).Add(profiling.Object{Global: in.GlobalRef}) {
						changed = true
					}
				case ir.OpAdd, ir.OpSub:
					// Pointer arithmetic: the result may point into any
					// object either operand points into.
					flowInto(get(in), get(in.Args[0]))
					flowInto(get(in), get(in.Args[1]))
				case ir.OpSelect:
					flowInto(get(in), get(in.Args[1]))
					flowInto(get(in), get(in.Args[2]))
				case ir.OpPhi:
					for _, a := range in.Args {
						flowInto(get(in), get(a))
					}
				case ir.OpPtrToInt, ir.OpIntToPtr:
					flowInto(get(in), get(in.Args[0]))
				case ir.OpLoad:
					// r = load p: heap(o) flows to r for each o in pts(p).
					// A load whose result set stays empty holds scalar
					// data; if such a value is nevertheless used as a
					// pointer, ValueObjects reports Unknown at query time.
					addrs := get(in.Args[0])
					for o := range addrs {
						if o == Unknown {
							if get(in).Add(Unknown) {
								changed = true
							}
							continue
						}
						flowInto(get(in), heapSet(o))
					}
				case ir.OpStore:
					// store v, p: pts(v) flows into heap(o).
					addrs := get(in.Args[1])
					val := get(in.Args[0])
					for o := range addrs {
						if o == Unknown {
							continue
						}
						flowInto(heapSet(o), val)
					}
				case ir.OpCall:
					callee := in.Callee
					csets := pt.valueSets[callee]
					for i, p := range callee.Params {
						for o := range get(in.Args[i]) {
							if csets[p.ValueID()].Add(o) {
								changed = true
							}
						}
					}
					// Return value: union of all callee ret operands.
					for _, b := range callee.Blocks {
						if t := b.Terminator(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 {
							flowInto(get(in), csets[t.Args[0].ValueID()])
						}
					}
				}
			})
		}
	}
	return pt
}
