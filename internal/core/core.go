// Package core is the public face of the Privateer reproduction: the fully
// automatic pipeline of section 4 (profile, classify, select, transform),
// the non-speculative DOALL-only baseline pipeline (ParallelizeStatic),
// and entry points for running either build under the speculative runtime
// and the unmodified program sequentially.
//
//	mod := buildProgram()                        // IR via the builder
//	par, _ := core.Parallelize(mod, core.Options{TrainArgs: ...})
//	rt, _ := core.Run(par, specrt.Config{Workers: 24})
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/specrt"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// Options controls the compiler pipeline.
type Options struct {
	// TrainArgs are the entry arguments for the profiling run (the train
	// input).
	TrainArgs []uint64
	// MinLoopSteps filters loops whose profiled execution time share is
	// negligible (absolute step count; 0 selects a small default).
	MinLoopSteps int64
	// Workers is the fleet the compiled program will run on. When
	// positive, a hot loop whose average profiled invocation the simulated
	// machine (specrt.PriceInvocation) does not price cheaper speculated
	// than in order is rejected; 0 selects every loop it can separate.
	Workers int
}

// Ablation describes an evidence build: the pipeline with one stage
// switched off, or with deliberately wrong proofs planted. It is accepted
// only by ParallelizeAblated, which the bench harness, the audit oracles
// and tests call; Parallelize always compiles with the zero Ablation.
type Ablation struct {
	// Classify is handed to the classifier as it is (value prediction).
	Classify classify.Options
	// Transform is handed to the transformation as it is (static check
	// elision, the postprocess pass).
	Transform transform.Options
	// DisableStaticSep turns off the static separation prover: every
	// object keeps its full dynamic machinery (the elision-only build the
	// staticsep variant and audit.Run compare against).
	DisableStaticSep bool
	// PlantProofs force-injects deliberately-unsound proofs, keyed by
	// object name ("@global" or "fn:site") with a proof-rule value. It
	// exists solely so tests and the audit harness can verify that the
	// dynamic oracles catch a wrong static claim.
	PlantProofs map[string]string
}

// LoopReport records the pipeline's decision about one hot loop.
type LoopReport struct {
	// Loop names the loop.
	Loop string
	// Steps is the loop's profiled execution-time share.
	Steps int64
	// Selected is true if the loop was privatized and parallelized.
	Selected bool
	// Reason explains rejection (empty when selected).
	Reason string
	// Assignment is the heap assignment (selected loops only).
	Assignment *classify.Assignment
}

// Parallelized is the output of the compiler pipeline: a transformed module
// plus the artifacts the runtime needs.
type Parallelized struct {
	// Mod is the transformed module.
	Mod *ir.Module
	// Regions holds one entry per selected loop.
	Regions []*specrt.RegionInfo
	// Profile is the training profile.
	Profile *profiling.Profile
	// Reports explains every hot-loop decision, hottest first.
	Reports []LoopReport
}

// Parallelize runs the fully automatic pipeline on mod, mutating it in
// place. The module must verify and should be in SSA form (PromoteAllocas).
func Parallelize(mod *ir.Module, opts Options) (*Parallelized, error) {
	return ParallelizeAblated(mod, opts, Ablation{})
}

// ParallelizeAblated is Parallelize with the stages abl names switched off
// and its proofs planted: the "before" builds of the bench harness's
// variant table and the planted-proof builds the audit oracles must catch.
func ParallelizeAblated(mod *ir.Module, opts Options, abl Ablation) (*Parallelized, error) {
	prof, pt, minSteps, err := profileModule(mod, opts)
	if err != nil {
		return nil, err
	}

	out := &Parallelized{Mod: mod, Profile: prof}
	// Heap assignments must be compatible across selected loops: one
	// object cannot live in two heaps.
	committed := map[profiling.Object]ir.HeapKind{}
	selectedLoops := []*ir.Loop{}

	for _, li := range prof.HotLoops() {
		l := li.Loop
		rep := LoopReport{Loop: l.String(), Steps: li.Steps}
		switch {
		case li.Steps < minSteps:
			rep.Reason = "cold"
		case li.Invocations > 0 && li.Iterations < 3*li.Invocations:
			// Iterations counts header trips, so this is fewer than two
			// body iterations per invocation: no parallelism to extract,
			// and a single-iteration profile cannot expose the loop's
			// carried dependences (a one-epoch training run looks
			// spuriously DOALL-able), so speculation would only
			// misspeculate. Skipping it lets a hot inner loop be selected.
			rep.Reason = "too few iterations per invocation to profit"
		case loopCanReachFunc(l, l.Header.Fn):
			rep.Reason = reentersReason
		case conflictsWithSelected(l, selectedLoops):
			rep.Reason = "may be simultaneously active with a selected loop"
		default:
			if reason := unprofitable(li, opts.Workers); reason != "" {
				rep.Reason = reason
				break
			}
			a := classify.Classify(l, prof, abl.Classify)
			plan := deps.SpeculativeBlockers(l, prof, a)
			if len(plan.Blockers) > 0 {
				rep.Reason = plan.Blockers[0].String()
				break
			}
			if conflict := heapConflict(a, committed); conflict != "" {
				rep.Reason = conflict
				break
			}
			if !abl.DisableStaticSep {
				a.Sep = analysis.ProveSeparation(l, pt, analysis.SepCandidates{
					ReadOnly:   a.ReadOnly,
					ShortLived: a.ShortLived,
					Private:    a.Private,
					Redux:      a.Redux,
				})
				for name, rule := range abl.PlantProofs {
					for _, oh := range a.Objects() {
						if oh.Object.String() == name {
							a.Sep.Plant(oh.Object, analysis.ProofRule(rule))
						}
					}
				}
			}
			res, err := transform.Apply(mod, l, prof, a, plan, pt, abl.Transform)
			if err != nil {
				rep.Reason = err.Error()
				break
			}
			outline, err := transform.Outline(mod, l)
			if err != nil {
				rep.Reason = err.Error()
				break
			}
			rep.Selected = true
			rep.Assignment = a
			selectedLoops = append(selectedLoops, l)
			for _, oh := range a.Objects() {
				committed[oh.Object] = oh.Heap
			}
			out.Regions = append(out.Regions, &specrt.RegionInfo{
				Outline: outline,
				Assign:  a,
				Plan:    plan,
				TStats:  res.Stats,
			})
		}
		out.Reports = append(out.Reports, rep)
	}
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("core: transformed module invalid: %w", err)
	}
	return out, nil
}

// profileModule is the front half both pipelines share: verify mod, profile
// it on the train input, and compute points-to and the hot-loop threshold.
// A loop is "hot" when it holds at least ~1% of the profiled execution
// time (and a small absolute floor keeps toy modules sensible).
func profileModule(mod *ir.Module, opts Options) (*profiling.Profile, *analysis.PointsTo, int64, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, nil, 0, fmt.Errorf("core: input module invalid: %w", err)
	}
	prof, err := profiling.Run(mod, opts.TrainArgs...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: profiling failed: %w", err)
	}
	minSteps := opts.MinLoopSteps
	if minSteps == 0 {
		minSteps = prof.Steps / 100
		if minSteps < 100 {
			minSteps = 100
		}
	}
	return prof, analysis.ComputePointsTo(mod), minSteps, nil
}

// unprofitable prices li's average profiled invocation on a fleet of w
// workers and returns the rejection reason when speculating it is no
// cheaper than running it in order; "" otherwise, and always when w is 0.
// The loop has at least two body iterations per invocation.
func unprofitable(li *profiling.LoopInfo, w int) string {
	if w <= 0 {
		return ""
	}
	iters := li.Iterations - li.Invocations
	spec, seq := specrt.PriceInvocation(iters/li.Invocations, li.Steps/iters, w)
	if spec < seq {
		return ""
	}
	return fmt.Sprintf("unprofitable at %d workers: %d steps speculated vs %d in order", w, spec, seq)
}

// conflictsWithSelected applies section 4.3's nesting constraint: two loops
// that may be simultaneously active are incompatible. Loops conflict when
// one contains the other, or when one can call the function holding the
// other.
func conflictsWithSelected(l *ir.Loop, selected []*ir.Loop) bool {
	for _, s := range selected {
		// Containment is checked by block identity, which stays valid even
		// after a selected loop's blocks were outlined into __iter.
		if s.Contains(l.Header) || l.Contains(s.Header) {
			return true
		}
		if l.Header.Fn != s.Header.Fn &&
			(loopCanReachFunc(s, l.Header.Fn) || loopCanReachFunc(l, s.Header.Fn)) {
			return true
		}
	}
	return false
}

// reentersReason rejects a loop whose body can call back into its own
// function: section 4.3's nesting constraint applied to the loop and itself.
const reentersReason = "may be simultaneously active with itself: the body can re-enter its function"

// loopCanReachFunc reports whether code inside l can call into target.
func loopCanReachFunc(l *ir.Loop, target *ir.Function) bool {
	funcs, reenters := ir.RegionFuncs(l)
	return slices.Contains(funcs[1:], target) || reenters && target == l.Header.Fn
}

// heapConflict reports whether assignment a disagrees with heaps already
// committed by previously selected loops.
func heapConflict(a *classify.Assignment, committed map[profiling.Object]ir.HeapKind) string {
	for _, oh := range a.Objects() {
		if prev, ok := committed[oh.Object]; ok && prev != oh.Heap {
			return fmt.Sprintf("object %s assigned to both %s and %s heaps",
				oh.Object, prev, oh.Heap)
		}
	}
	return ""
}

// Run executes the parallelized program under the speculative runtime. A
// DOALL-only build's regions (ParallelizeStatic) carry no Assign: the
// runtime runs each of their invocations in order and prices it as a fleet
// of cfg.Workers, so both builds are measured under one model.
func Run(p *Parallelized, cfg specrt.Config, args ...uint64) (*specrt.RT, uint64, error) {
	rt := specrt.New(p.Mod, cfg, p.Regions...)
	ret, err := rt.Run(args...)
	return rt, ret, err
}

// RunSequential executes a module sequentially and returns the result and
// its printed output. For a fair "best sequential" baseline, pass a freshly
// built, untransformed module.
func RunSequential(mod *ir.Module, args ...uint64) (uint64, string, error) {
	it := interp.New(mod, vm.NewAddressSpace())
	ret, err := it.Run(args...)
	return ret, it.Out.String(), err
}

// Summary renders the pipeline decisions for reports and tools.
func (p *Parallelized) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s: %d region(s) parallelized\n", p.Mod.Name, len(p.Regions))
	reps := append([]LoopReport(nil), p.Reports...)
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].Steps > reps[j].Steps })
	for _, r := range reps {
		status := "selected"
		if !r.Selected {
			status = "rejected: " + r.Reason
		}
		fmt.Fprintf(&sb, "  loop %-28s steps=%-10d %s\n", r.Loop, r.Steps, status)
	}
	for _, ri := range p.Regions {
		if ri.Assign == nil {
			continue // a DOALL-only region: nothing assigned, nothing extra
		}
		fmt.Fprintf(&sb, "\n%s", ri.Assign)
		fmt.Fprintf(&sb, "  extras: %s\n", ri.TStats.Extras(ri.Plan))
	}
	return sb.String()
}
