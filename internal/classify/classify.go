// Package classify implements section 4.2 of the paper: computing the read,
// write and reduction footprints of a loop (Algorithm 2, getFootprint) and
// partitioning the loop's memory footprint into the five logical heaps —
// short-lived, reduction, unrestricted, private and read-only (Algorithm 1,
// classify). The result is a heap assignment, the compiler artifact that the
// privatizing transformation and the runtime system share.
package classify

import (
	"fmt"
	"sort"
	"strings"

	"privateer/internal/analysis"
	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// Footprint is the result of Algorithm 2 for one loop or one instruction:
// the sets of memory objects read, written, and updated by syntactic
// reduction sequences.
type Footprint struct {
	// Read holds objects read by non-reduction loads.
	Read profiling.ObjectSet
	// Write holds objects written by non-reduction stores.
	Write profiling.ObjectSet
	// Redux holds objects accessed via reduction updates (ir.ReduxUpdate),
	// all of them with one operator at one element size.
	Redux profiling.ObjectSet
	// ReduxOps records that operator per object (for heap initialization
	// and merging at run time).
	ReduxOps map[profiling.Object]ir.ReduxKind
	// ReduxSizes records that element size per object.
	ReduxSizes map[profiling.Object]int64
	// updates holds the load and the store of every reduction update (set
	// by GetFootprint only).
	updates map[*ir.Instr]bool
}

func newFootprint() *Footprint {
	return &Footprint{
		Read:       profiling.ObjectSet{},
		Write:      profiling.ObjectSet{},
		Redux:      profiling.ObjectSet{},
		ReduxOps:   map[profiling.Object]ir.ReduxKind{},
		ReduxSizes: map[profiling.Object]int64{},
	}
}

// Assignment is a heap assignment: the five-way partition of a loop's
// memory footprint (Figure 4 of the paper), plus the supporting facts the
// transformation needs.
type Assignment struct {
	// Loop is the classified loop.
	Loop *ir.Loop
	// ShortLived, Redux, Unrestricted, Private and ReadOnly partition the
	// footprint.
	ShortLived   profiling.ObjectSet // iteration-lifetime allocations
	Redux        profiling.ObjectSet // reduction accumulators
	Unrestricted profiling.ObjectSet // everything the other heaps reject
	Private      profiling.ObjectSet // privatizable (write-before-read)
	ReadOnly     profiling.ObjectSet // never written in the region
	// ReduxOps gives the operator for each reduction object.
	ReduxOps map[profiling.Object]ir.ReduxKind
	// ReduxSizes gives the element size (bytes) of each reduction object's
	// updates, for identity initialization.
	ReduxSizes map[profiling.Object]int64
	// PredictableLoads lists loads whose every *carried* occurrence read
	// one stable value from one fixed global location during profiling;
	// value-prediction speculation removes those dependences (dijkstra's
	// empty-queue pattern). The value maps the load to its prediction.
	PredictableLoads map[*ir.Instr]uint64
	// Predictions lists the distinct predicted locations; the
	// transformation validates and re-establishes each at the start of
	// every iteration (the paper's end-of-iteration queue-empty checks).
	Predictions []PredictedLocation
	// Footprint is the loop's full footprint from Algorithm 2.
	Footprint *Footprint
	// Sep carries the static separation prover's verdicts for this loop:
	// the proven subset of each heap's objects, by rule. Nil when the
	// prover did not run. The transformation drops checks for proven
	// objects and the runtime drops their shadow machinery; the dynamic
	// profile and runtime oracles audit every claim recorded here.
	Sep *analysis.SepResult
}

// ProvenFor reports whether o's heap assignment is statically proven, so
// its dynamic machinery can be dropped rather than merely elided.
func (a *Assignment) ProvenFor(o profiling.Object) bool {
	return a.Sep != nil && a.Sep.ProvenFor(o, a.HeapOf(o))
}

// HeapOf returns the heap kind assigned to object o, or HeapSystem if o is
// outside the loop's footprint.
func (a *Assignment) HeapOf(o profiling.Object) ir.HeapKind {
	switch {
	case a.ShortLived[o]:
		return ir.HeapShortLived
	case a.Redux[o]:
		return ir.HeapRedux
	case a.Unrestricted[o]:
		return ir.HeapUnrestricted
	case a.Private[o]:
		return ir.HeapPrivate
	case a.ReadOnly[o]:
		return ir.HeapReadOnly
	default:
		return ir.HeapSystem
	}
}

// Objects returns every object in the assignment with its heap, sorted by
// name for deterministic reports.
func (a *Assignment) Objects() []ObjectHeap {
	var all []ObjectHeap
	add := func(s profiling.ObjectSet, h ir.HeapKind) {
		for o := range s {
			all = append(all, ObjectHeap{Object: o, Heap: h})
		}
	}
	add(a.ShortLived, ir.HeapShortLived)
	add(a.Redux, ir.HeapRedux)
	add(a.Unrestricted, ir.HeapUnrestricted)
	add(a.Private, ir.HeapPrivate)
	add(a.ReadOnly, ir.HeapReadOnly)
	sort.Slice(all, func(i, j int) bool { return all[i].Object.String() < all[j].Object.String() })
	return all
}

// ObjectHeap pairs an object with its assigned heap.
type ObjectHeap struct {
	Object profiling.Object // the allocation site or global
	Heap   ir.HeapKind      // its assigned logical heap
}

// PredictedLocation is a fixed global location whose value at iteration
// boundaries is speculated constant.
type PredictedLocation struct {
	// Global holds the location.
	Global *ir.Global
	// Offset is the byte offset within the global.
	Offset uint64
	// Size is the access width.
	Size int64
	// Value is the predicted constant.
	Value uint64
	// Typ is the type predicted loads produced (Ptr or I64).
	Typ ir.Type
}

// String renders the assignment like the paper's Figure 4.
func (a *Assignment) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "heap assignment for %s:\n", a.Loop)
	row := func(name string, s profiling.ObjectSet) {
		fmt.Fprintf(&sb, "  %-12s {%s}\n", name+":", strings.Join(s.Names(), ", "))
	}
	row("short-lived", a.ShortLived)
	row("redux", a.Redux)
	row("unrestricted", a.Unrestricted)
	row("private", a.Private)
	row("read-only", a.ReadOnly)
	return sb.String()
}

// GetFootprint implements Algorithm 2 for loop l's region: the loop body and
// everything callable from it (ir.RegionMemOps). The pointer-to-object
// profile resolves each access to the objects it touched. A store and its
// load form a reduction update when ir.ReduxUpdate says so and the load runs
// in the same iteration as the store — one hoisted out of the loop reads the
// pre-loop value every time, and acc = v0 op x is an overwrite, not a
// reduction. An object updated with two different operators, or at two
// element sizes, has no single way to fold its partial results: it is
// demoted to a plain read and write.
func GetFootprint(l *ir.Loop, prof *profiling.Profile) *Footprint {
	fp := newFootprint()
	fp.updates = map[*ir.Instr]bool{}
	writes, reads := ir.RegionMemOps(l)
	mixed, uses := profiling.ObjectSet{}, ir.UseIndex{}
	for _, w := range writes {
		objs := prof.MapPointerToObjects(w)
		ld, kind, size, isRedux := uses.ReduxUpdate(w)
		switch {
		case isRedux && (ld.Blk.Fn != l.Header.Fn || l.ContainsInstr(ld)):
			fp.updates[w], fp.updates[ld] = true, true
			for o := range objs {
				if fp.ReduxOps[o] == ir.ReduxNone {
					fp.ReduxOps[o], fp.ReduxSizes[o] = kind, size
				} else if fp.ReduxOps[o] != kind || fp.ReduxSizes[o] != size {
					mixed.Add(o)
				}
				fp.Redux.Add(o)
			}
		case w.Op == ir.OpStore, w.Op == ir.OpMemSet, w.Op == ir.OpMemCopy:
			fp.Write.Union(objs)
		}
	}
	for _, r := range reads {
		// A memcopy reads src and writes dst; the profile records both
		// under the one instruction, so it is in both sets.
		if objs := prof.MapPointerToObjects(r); fp.updates[r] {
			fp.Redux.Union(objs)
		} else {
			fp.Read.Union(objs)
		}
	}
	for o := range mixed {
		delete(fp.Redux, o)
		delete(fp.ReduxOps, o)
		delete(fp.ReduxSizes, o)
		fp.Read.Add(o)
		fp.Write.Add(o)
	}
	return fp
}

// instrFootprint computes the footprint of a single instruction of the
// region whose reduction updates are updates (the getFootprint(a) calls
// inside Algorithm 1), recurring into callees.
func instrFootprint(in *ir.Instr, prof *profiling.Profile, updates map[*ir.Instr]bool) *Footprint {
	fp := newFootprint()
	switch in.Op {
	case ir.OpLoad:
		if objs := prof.MapPointerToObjects(in); updates[in] {
			fp.Redux.Union(objs)
		} else {
			fp.Read.Union(objs)
		}
	case ir.OpStore:
		if objs := prof.MapPointerToObjects(in); updates[in] {
			fp.Redux.Union(objs)
		} else {
			fp.Write.Union(objs)
		}
	case ir.OpMemCopy:
		fp.Read.Union(prof.MapPointerToObjects(in))
		fp.Write.Union(prof.MapPointerToObjects(in))
	case ir.OpMemSet:
		fp.Write.Union(prof.MapPointerToObjects(in))
	case ir.OpCall:
		seen := map[*ir.Function]bool{}
		var scanFunc func(f *ir.Function)
		scanFunc = func(f *ir.Function) {
			if seen[f] {
				return
			}
			seen[f] = true
			f.Instrs(func(cin *ir.Instr) {
				if cin.Op == ir.OpCall {
					scanFunc(cin.Callee)
					return
				}
				sub := instrFootprint(cin, prof, updates)
				fp.Read.Union(sub.Read)
				fp.Write.Union(sub.Write)
				fp.Redux.Union(sub.Redux)
			})
		}
		scanFunc(in.Callee)
	}
	return fp
}

// Options tunes classification; the zero value is the production shape
// and only core.ParallelizeAblated passes anything else.
type Options struct {
	// DisableValuePrediction turns off the value-prediction refinement:
	// carried dependences through stably-constant locations force their
	// objects into the unrestricted heap instead.
	DisableValuePrediction bool
}

// Classify implements Algorithm 1: it partitions loop l's footprint into the
// five heaps using the profile's lifetime, dependence and value information.
func Classify(l *ir.Loop, prof *profiling.Profile, opts Options) *Assignment {
	a := &Assignment{
		Loop:             l,
		ShortLived:       profiling.ObjectSet{},
		Redux:            profiling.ObjectSet{},
		Unrestricted:     profiling.ObjectSet{},
		Private:          profiling.ObjectSet{},
		ReadOnly:         profiling.ObjectSet{},
		ReduxOps:         map[profiling.Object]ir.ReduxKind{},
		ReduxSizes:       map[profiling.Object]int64{},
		PredictableLoads: map[*ir.Instr]uint64{},
	}
	fp := GetFootprint(l, prof)
	a.Footprint = fp

	// foreach object in Write ∪ Read: short-lived per the lifetime profile.
	for o := range union(fp.Write, fp.Read, fp.Redux) {
		if prof.IsShortLived(o, l) {
			a.ShortLived.Add(o)
		}
	}
	// foreach object in ReduxFootprint: reduction candidates must not be
	// read or written by non-reduction accesses elsewhere in the loop.
	for o := range fp.Redux {
		if a.ShortLived[o] {
			continue
		}
		if !fp.Read[o] && !fp.Write[o] {
			a.Redux.Add(o)
			a.ReduxOps[o], a.ReduxSizes[o] = fp.ReduxOps[o], fp.ReduxSizes[o]
		}
	}

	// Value-predictable loads: carried flow dependences whose destination
	// load always read the same value from the same fixed global location
	// can be removed by value-prediction speculation instead of forcing
	// objects into the unrestricted heap.
	predictable := map[*ir.Instr]bool{}
	seenLoc := map[PredictedLocation]bool{}
	for _, d := range prof.CarriedFlow[l] {
		if opts.DisableValuePrediction {
			break
		}
		cr := prof.CarriedReads[l][d.Dst]
		if cr == nil || !cr.Stable || cr.Object.Global == nil {
			continue
		}
		// Reduction and short-lived objects already absorb their carried
		// dependences, and their worker-local values legitimately differ
		// from the sequential ones (identity-initialized accumulators,
		// per-iteration instances) — predicting them would misspeculate
		// on every iteration.
		if a.Redux[cr.Object] || a.ShortLived[cr.Object] {
			continue
		}
		predictable[d.Dst] = true
		a.PredictableLoads[d.Dst] = cr.Value
		loc := PredictedLocation{
			Global: cr.Object.Global, Offset: cr.Offset, Size: cr.Size,
			Value: cr.Value, Typ: d.Dst.Type(),
		}
		if !seenLoc[loc] {
			seenLoc[loc] = true
			a.Predictions = append(a.Predictions, loc)
		}
	}
	sort.Slice(a.Predictions, func(i, j int) bool {
		pi, pj := a.Predictions[i], a.Predictions[j]
		if pi.Global != pj.Global {
			return pi.Global.Name < pj.Global.Name
		}
		return pi.Offset < pj.Offset
	})

	// Cross-iteration memory flow dependences put their objects in the
	// unrestricted heap, unless already short-lived or reduction, or
	// removable by value prediction.
	for _, d := range prof.CarriedFlow[l] {
		if predictable[d.Dst] {
			continue
		}
		src := instrFootprint(d.Src, prof, fp.updates)
		dst := instrFootprint(d.Dst, prof, fp.updates)
		// F = (Wa ∪ Xa) ∩ (Rb ∪ Xb)
		for o := range union(src.Write, src.Redux) {
			if dst.Read[o] || dst.Redux[o] {
				if !a.ShortLived[o] && !a.Redux[o] {
					a.Unrestricted.Add(o)
				}
			}
		}
	}

	// Private = Write \ ShortLived \ Unrestricted \ Redux.
	for o := range fp.Write {
		if !a.ShortLived[o] && !a.Unrestricted[o] && !a.Redux[o] {
			a.Private.Add(o)
		}
	}
	// ReadOnly = Read \ everything else.
	for o := range fp.Read {
		if !a.ShortLived[o] && !a.Unrestricted[o] && !a.Redux[o] && !a.Private[o] {
			a.ReadOnly.Add(o)
		}
	}
	return a
}

func union(sets ...profiling.ObjectSet) profiling.ObjectSet {
	u := profiling.ObjectSet{}
	for _, s := range sets {
		u.Union(s)
	}
	return u
}
