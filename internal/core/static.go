package core

import (
	"fmt"

	"privateer/internal/deps"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/transform"
)

// ParallelizeStatic runs the non-speculative baseline pipeline, Figure 7's
// DOALL-only compiler: profile for hotness only (a real compiler would use
// static heuristics; hotness makes the comparison apples-to-apples), judge
// every loop with conservative static analysis, and outline the provable
// ones, with no privatization, checks or checkpoints. Its regions carry no
// Assign, so Run executes each invocation in program order and prices it as
// a fleet of workers under the speculative runtime's cost model.
func ParallelizeStatic(mod *ir.Module, opts Options) (*Parallelized, error) {
	prof, pt, minSteps, err := profileModule(mod, opts)
	if err != nil {
		return nil, err
	}
	out := &Parallelized{Mod: mod, Profile: prof}
	var selected []*ir.Loop
	for _, li := range prof.HotLoops() {
		l := li.Loop
		rep := LoopReport{Loop: l.String(), Steps: li.Steps}
		switch {
		case li.Steps < minSteps:
			rep.Reason = "cold"
		case loopCanReachFunc(l, l.Header.Fn):
			rep.Reason = reentersReason
		case conflictsWithSelected(l, selected):
			rep.Reason = "may be simultaneously active with a selected loop"
		default:
			blockers := deps.StaticBlockers(l, pt)
			if len(blockers) > 0 {
				rep.Reason = blockers[0].String()
				break
			}
			region, err := transform.Outline(mod, l)
			if err != nil {
				rep.Reason = err.Error()
				break
			}
			rep.Selected = true
			selected = append(selected, l)
			out.Regions = append(out.Regions, &specrt.RegionInfo{Outline: region})
		}
		out.Reports = append(out.Reports, rep)
	}
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("core: outlined module invalid: %w", err)
	}
	return out, nil
}
