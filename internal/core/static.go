package core

import (
	"fmt"

	"privateer/internal/deps"
	"privateer/internal/doall"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// StaticParallelized is the DOALL-only compilation result: regions proved
// independent by static analysis alone, with no privatization, checks or
// checkpoints (Figure 7's baseline).
type StaticParallelized struct {
	// Mod is the outlined module.
	Mod *ir.Module
	// Regions are the outlined loops.
	Regions []*doall.Region
	// Reports explains each hot loop's fate.
	Reports []LoopReport
}

// ParallelizeStatic runs the non-speculative baseline pipeline: profile for
// hotness only (a real compiler would use static heuristics; hotness makes
// the comparison apples-to-apples), judge every loop with conservative
// static analysis, and outline the provable ones.
func ParallelizeStatic(mod *ir.Module, opts Options) (*StaticParallelized, error) {
	prof, pt, minSteps, err := profileModule(mod, opts)
	if err != nil {
		return nil, err
	}
	out := &StaticParallelized{Mod: mod}
	var selected []*ir.Loop
	for _, li := range prof.HotLoops() {
		l := li.Loop
		rep := LoopReport{Loop: l.String(), Steps: li.Steps}
		switch {
		case li.Steps < minSteps:
			rep.Reason = "cold"
		case conflictsWithSelected(l, selected):
			rep.Reason = "may be simultaneously active with a selected loop"
		default:
			blockers := deps.StaticBlockers(l, pt)
			if len(blockers) > 0 {
				rep.Reason = blockers[0].String()
				break
			}
			iv := ir.FindInductionVar(l)
			if iv == nil {
				rep.Reason = "no canonical induction variable"
				break
			}
			region, err := doall.Outline(mod, l, iv)
			if err != nil {
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
		return nil, fmt.Errorf("core: outlined module invalid: %w", err)
	}
	return out, nil
}

// StaticRun is the outcome of one DOALL-only execution.
type StaticRun struct {
	// Baseline is the scheduler, with its stats.
	Baseline *doall.Baseline
	// Ret is the program result.
	Ret uint64
	// Output is the printed output.
	Output string
	// MasterSteps counts instructions interpreted outside parallel regions.
	MasterSteps int64
}

// SimTime returns the run's simulated execution time (see specrt/sim.go
// for the model).
func (r *StaticRun) SimTime() int64 { return r.MasterSteps + r.Baseline.Stats.SimRegionTime }

// RunStatic executes a DOALL-only program with the given worker count.
func RunStatic(p *StaticParallelized, workers int, args ...uint64) (*StaticRun, error) {
	it := interp.New(p.Mod, vm.NewAddressSpace())
	bl := doall.NewBaseline(workers, p.Regions...)
	bl.Attach(it)
	ret, err := it.Run(args...)
	if err != nil {
		return nil, err
	}
	return &StaticRun{Baseline: bl, Ret: ret, Output: it.Out.String(), MasterSteps: it.Steps}, nil
}
