// Package audit cross-examines the static separation prover: every proof
// the compile pipeline attaches to a parallel region is re-checked against
// three independent oracles, and any claim a single oracle contradicts is
// reported loudly. The layers are deliberately redundant — a bug in the
// prover itself (modeled by core.Ablation.PlantProofs) must be caught by at
// least one of them before a proven object's dropped dynamic machinery can
// silently corrupt a run:
//
//  1. Re-derivation: the pipeline runs a second time without planted
//     proofs; any shipped claim the independent run does not reproduce is
//     unsupported.
//  2. Profile contradiction: a fresh instrumented interpretation of the
//     untransformed program on the audit input provides ground truth — a
//     write into a proven read-only object, a loop-carried flow dependence
//     through a statically-privatized object, or an escaping "iteration-
//     local" object each contradict the corresponding rule directly.
//  3. Runtime oracle: the transformed program runs under specrt.Config
//     .SepAudit, whose per-access hooks (and the retained read-only page
//     protection) flag any speculative access that violates a claim while
//     it happens.
package audit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/specrt"
)

// Claim is one static separation proof shipped with a parallel region,
// identified by name so it can be checked against independently built
// modules.
type Claim struct {
	// Loop names the region the proof is scoped to.
	Loop string `json:"loop"`
	// Object names the proven object (profiling.Object.String form).
	Object string `json:"object"`
	// Rule is the winning proof rule.
	Rule analysis.ProofRule `json:"rule"`
}

// Violation is one audit finding: a claim contradicted by an oracle layer.
type Violation struct {
	// Claim is the contradicted proof ("*" fields for whole-run findings).
	Claim Claim `json:"claim"`
	// Layer names the oracle that fired: rederive, profile, or runtime.
	Layer string `json:"layer"`
	// Detail explains the contradiction.
	Detail string `json:"detail"`
}

// Report is the outcome of auditing one program.
type Report struct {
	// Claims lists every static proof that was audited, sorted.
	Claims []Claim `json:"claims"`
	// Violations lists every contradicted claim (empty = all claims held).
	Violations []Violation `json:"violations"`
	// RuntimeDetails carries the raw SepAudit oracle lines, bounded.
	RuntimeDetails []string `json:"runtime_details,omitempty"`
	// Misspecs is the audited run's misspeculation count (informational:
	// recoveries are sound, but a proven object should never cause one).
	Misspecs int64 `json:"misspecs"`
}

// OK reports whether every audited claim survived all three oracles.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Format renders the report for terminal output.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audited %d static separation claim(s)\n", len(r.Claims))
	for _, c := range r.Claims {
		fmt.Fprintf(&sb, "  claim  %-10s %-24s loop %s\n", c.Rule, c.Object, c.Loop)
	}
	if r.OK() {
		sb.WriteString("all claims consistent with the dynamic oracles\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d VIOLATION(S):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  [%s] %s %s: %s\n", v.Layer, v.Claim.Rule, v.Claim.Object, v.Detail)
	}
	for _, d := range r.RuntimeDetails {
		fmt.Fprintf(&sb, "    runtime: %s\n", d)
	}
	return sb.String()
}

// normalizeObj maps an object name rendered after outlining back to its
// pre-transform form: an allocation site inside the region body prints as
// "__iter_<fn>_<seq>:site" once the body is outlined. The sequence number
// is counted per module, so two pipeline runs over the same program agree
// on it. Normalising is still needed because layer 2 checks the claims
// against a profile of the untransformed module, whose objects keep
// "<fn>:site", so claims compare by that original form.
func normalizeObj(name string) string {
	fn, site, ok := strings.Cut(name, ":")
	if !ok || !strings.HasPrefix(fn, "__iter_") {
		return name
	}
	base := strings.TrimPrefix(fn, "__iter_")
	if i := strings.LastIndex(base, "_"); i > 0 {
		if _, err := strconv.Atoi(base[i+1:]); err == nil {
			return base[:i] + ":" + site
		}
	}
	return name
}

// claims extracts the shipped proofs of every selected region, by name.
func claims(par *core.Parallelized) []Claim {
	var out []Claim
	for _, ri := range par.Regions {
		if ri.Assign == nil || ri.Assign.Sep == nil {
			continue
		}
		for o, rule := range ri.Assign.Sep.Proven {
			out = append(out, Claim{Loop: ri.Outline.LoopName, Object: normalizeObj(o.String()), Rule: rule})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Loop != b.Loop {
			return a.Loop < b.Loop
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Rule < b.Rule
	})
	return out
}

// Run audits the program produced by build: it parallelizes with opts and
// the planted proofs (core.Ablation.PlantProofs form; nil audits only the
// organically derived claims), re-derives without plants, profiles a fresh
// untransformed module for ground truth, and executes the transformed
// program under the runtime SepAudit oracle. build must return a fresh
// module per call. args are the program's entry arguments for the audited
// execution (TrainArgs in opts still drive the training profile).
func Run(build func() *ir.Module, opts core.Options, plants map[string]string,
	cfg specrt.Config, args ...uint64) (*Report, error) {
	par, err := core.ParallelizeAblated(build(), opts, core.Ablation{PlantProofs: plants})
	if err != nil {
		return nil, fmt.Errorf("audit: parallelize: %w", err)
	}
	rep := &Report{Claims: claims(par)}
	if len(rep.Claims) == 0 {
		return rep, nil
	}

	// Layer 1: independent re-derivation without planted proofs.
	clean, err := core.Parallelize(build(), opts)
	if err != nil {
		return nil, fmt.Errorf("audit: clean parallelize: %w", err)
	}
	derived := map[Claim]bool{}
	for _, c := range claims(clean) {
		derived[c] = true
	}
	for _, c := range rep.Claims {
		if !derived[c] {
			rep.Violations = append(rep.Violations, Violation{Claim: c, Layer: "rederive",
				Detail: "independent prover run does not reproduce this claim"})
		}
	}

	// Layer 2: ground truth from a fresh profile of the untransformed
	// module on the audited input. Claims match by name across modules.
	fresh := build()
	profArgs := args
	if len(profArgs) == 0 {
		profArgs = opts.TrainArgs
	}
	prof, err := profiling.Run(fresh, profArgs...)
	if err != nil {
		return nil, fmt.Errorf("audit: profile: %w", err)
	}
	rep.Violations = append(rep.Violations, profileViolations(rep.Claims, fresh, prof)...)

	// Layer 3: the runtime SepAudit oracle over the transformed program,
	// plus a bit-identical comparison against the elision-only baseline
	// build (full dynamic machinery, same worker count and fold order —
	// the sequential reference is unsuitable here because FP reductions
	// legitimately refold across workers).
	cfg.SepAudit = true
	basePar, err := core.ParallelizeAblated(build(), opts, core.Ablation{DisableStaticSep: true})
	if err != nil {
		return nil, fmt.Errorf("audit: baseline parallelize: %w", err)
	}
	baseRT, baseVal, err := core.Run(basePar, cfg, args...)
	if err != nil {
		return nil, fmt.Errorf("audit: baseline run: %w", err)
	}
	rt, got, err := core.Run(par, cfg, args...)
	if err != nil {
		return nil, fmt.Errorf("audit: speculative run: %w", err)
	}
	rec := rt.Record
	rep.Misspecs = rec.Stats.Misspecs
	rep.RuntimeDetails = rec.SepAudit
	if n := rec.Stats.SepAuditViolations; n > 0 {
		rep.Violations = append(rep.Violations, Violation{
			Claim: Claim{Loop: "*", Object: "*", Rule: "*"}, Layer: "runtime",
			Detail: fmt.Sprintf("SepAudit oracle flagged %d access(es) violating a static claim", n)})
	}
	if got != baseVal || rt.Output() != baseRT.Output() {
		rep.Violations = append(rep.Violations, Violation{
			Claim: Claim{Loop: "*", Object: "*", Rule: "*"}, Layer: "runtime",
			Detail: fmt.Sprintf("proven build diverged from the elision-only baseline (%d vs %d)", got, baseVal)})
	}
	return rep, nil
}

// profileViolations checks each claim against the fresh profile: the
// profile observed the actual execution, so any contradiction here is a
// definite counterexample to the static proof.
func profileViolations(cs []Claim, mod *ir.Module, prof *profiling.Profile) []Violation {
	loops := map[string]*ir.Loop{}
	for _, l := range prof.AllLoops {
		loops[l.String()] = l
	}
	objs := map[string]profiling.Object{}
	for _, set := range prof.PointsTo {
		for o := range set {
			objs[o.String()] = o
		}
	}
	for _, name := range mod.GlobalNames() {
		g := mod.Globals[name]
		o := profiling.Object{Global: g}
		objs[o.String()] = o
	}

	var out []Violation
	for _, c := range cs {
		l := loops[c.Loop]
		if l == nil {
			continue // loop shape changed between builds; nothing to check
		}
		o, known := objs[c.Object]
		bad := func(detail string) {
			out = append(out, Violation{Claim: c, Layer: "profile", Detail: detail})
		}
		switch c.Rule {
		case analysis.RuleReadOnly:
			if !known {
				break
			}
			writes, _ := ir.RegionMemOps(l)
			for _, w := range writes {
				if prof.PointsTo[w][o] {
					bad(fmt.Sprintf("region write %s targeted the object during profiling", w))
					break
				}
			}
		case analysis.RuleIterLocal:
			if known && !prof.IsShortLived(o, l) {
				bad("object outlived an iteration (or was accessed outside its allocating iteration)")
			}
		case analysis.RuleCoveredWrite, analysis.RuleAffineDisjoint:
			for _, d := range prof.CarriedFlow[l] {
				if d.Object.String() == c.Object {
					bad(fmt.Sprintf("loop-carried flow dependence observed %d time(s): %s -> %s",
						d.Count, d.Src.Format(), d.Dst.Format()))
					break
				}
			}
		case analysis.RuleRedux:
			// The reduction shape is syntactic (re-derived in layer 1); the
			// profile cross-check is that no *foreign* carried flow rides
			// the object — a reduction's own carried chain is expected and
			// folds associatively, anything else does not.
		}
	}
	return out
}
