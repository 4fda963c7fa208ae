// Package core is the public face of the Privateer reproduction: the fully
// automatic pipeline of section 4 (profile, classify, select, transform),
// Figure 7's non-speculative DOALL-only baseline (ParallelizeStatic), and
// entry points for running either build under the speculative runtime and
// the unmodified program sequentially. The two builds are one hot-loop
// walk (compile) that judges a loop either by privatization plus
// speculation or by static dependence analysis alone.
//
//	mod := buildProgram()                        // IR via the builder
//	par, _ := core.Parallelize(mod, core.Options{TrainArgs: ...})
//	rt, _ := core.Run(par, specrt.Config{Workers: 24})
package core

import (
	"fmt"
	"slices"
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
	// positive, a hot loop whose average profiled invocation specrt.Price
	// prices no cheaper speculated than in order is rejected; 0 selects
	// every loop it can separate.
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
// It judges a loop by privatization plus speculation: price it, classify
// its footprint into heaps, plan away its carried dependences, prove what
// separation it can statically and transform it.
func ParallelizeAblated(mod *ir.Module, opts Options, abl Ablation) (*Parallelized, error) {
	price := specrt.Price{W: opts.Workers}
	return compile(mod, opts, func(li *profiling.LoopInfo, prof *profiling.Profile,
		pt *analysis.PointsTo, selected []*specrt.RegionInfo) (*specrt.RegionInfo, string) {
		if reason := price.Reject(averageInvocation(li)); reason != "" {
			return nil, reason
		}
		l := li.Loop
		a := classify.Classify(l, prof, abl.Classify)
		plan := deps.SpeculativeBlockers(l, prof, a)
		if len(plan.Blockers) > 0 {
			return nil, plan.Blockers[0].String()
		}
		if conflict := heapConflict(a, selected); conflict != "" {
			return nil, conflict
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
			return nil, err.Error()
		}
		return &specrt.RegionInfo{Assign: a, Plan: plan, TStats: res.Stats}, ""
	})
}

// ParallelizeStatic is Figure 7's non-speculative DOALL-only compiler: the
// walk Parallelize makes (hotness comes from the same profile, which keeps
// the comparison apples-to-apples), judging each loop by conservative
// static dependence analysis alone, with no privatization, checks or
// checkpoints. Its regions carry no Assign, so Run executes each invocation
// in program order and prices it as a fleet of workers under the
// speculative runtime's cost model.
func ParallelizeStatic(mod *ir.Module, opts Options) (*Parallelized, error) {
	return compile(mod, opts, func(li *profiling.LoopInfo, _ *profiling.Profile,
		pt *analysis.PointsTo, _ []*specrt.RegionInfo) (*specrt.RegionInfo, string) {
		if blockers := deps.StaticBlockers(li.Loop, pt); len(blockers) > 0 {
			return nil, blockers[0].String()
		}
		return &specrt.RegionInfo{}, ""
	})
}

// A judge decides a hot loop that passed compile's gates: the region it
// becomes, without its Outline, or why it is rejected. selected holds the
// regions chosen so far. It rewrites the module only for a loop it accepts.
type judge func(li *profiling.LoopInfo, prof *profiling.Profile,
	pt *analysis.PointsTo, selected []*specrt.RegionInfo) (*specrt.RegionInfo, string)

// compile is the one hot-loop walk of both builds. It verifies mod,
// profiles it on the train input and computes points-to and the hot
// threshold: ~1% of the profiled execution time, with a small absolute
// floor for toy modules. Then, hottest first, it rejects a loop that is
// cold, has too few iterations, re-enters its own function or may be active
// with a selected loop, hands the rest to judge and outlines each it accepts.
func compile(mod *ir.Module, opts Options, judge judge) (*Parallelized, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("core: input module invalid: %w", err)
	}
	prof, err := profiling.Run(mod, opts.TrainArgs...)
	if err != nil {
		return nil, fmt.Errorf("core: profiling failed: %w", err)
	}
	minSteps := opts.MinLoopSteps
	if minSteps == 0 {
		minSteps = max(prof.Steps/100, 100)
	}
	pt := analysis.ComputePointsTo(mod)
	out := &Parallelized{Mod: mod, Profile: prof}
	var selected []*ir.Loop
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
			// misspeculate, and running it in order as a DOALL-only region
			// costs a spawn and a join on top. Skipping it lets a hot inner
			// loop be selected.
			rep.Reason = "too few iterations per invocation to profit"
		case loopCanReachFunc(l, l.Header.Fn):
			rep.Reason = reentersReason
		case conflictsWithSelected(l, selected):
			rep.Reason = "may be simultaneously active with a selected loop"
		default:
			var region *specrt.RegionInfo
			if region, rep.Reason = judge(li, prof, pt, out.Regions); region == nil {
				break
			}
			if region.Outline, err = transform.Outline(mod, l); err != nil {
				rep.Reason = err.Error()
				break
			}
			rep.Selected = true
			selected = append(selected, l)
			out.Regions = append(out.Regions, region)
		}
		out.Reports = append(out.Reports, rep)
	}
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("core: transformed module invalid: %w", err)
	}
	return out, nil
}

// averageInvocation is li's average profiled invocation, which the price
// judges: n ≥ 2 body iterations of s steps each.
func averageInvocation(li *profiling.LoopInfo) (n, s int64) {
	iters := li.Iterations - li.Invocations
	return iters / li.Invocations, li.Steps / iters
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

// heapConflict reports whether assignment a puts an object in another heap
// than a region already selected does: one object cannot live in two heaps.
func heapConflict(a *classify.Assignment, selected []*specrt.RegionInfo) string {
	for _, oh := range a.Objects() {
		for _, r := range selected {
			if prev := r.Assign.HeapOf(oh.Object); prev != ir.HeapSystem && prev != oh.Heap {
				return fmt.Sprintf("object %s assigned to both %s and %s heaps",
					oh.Object, prev, oh.Heap)
			}
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
	for _, r := range p.Reports {
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
