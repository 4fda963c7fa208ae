package core

import (
	"fmt"
	"slices"

	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// StaticParallelized is the DOALL-only compilation result: regions proved
// independent by static analysis alone, with no privatization, checks or
// checkpoints (Figure 7's baseline).
type StaticParallelized struct {
	// Mod is the outlined module.
	Mod *ir.Module
	// Regions are the outlined loops.
	Regions []*transform.Region
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
	// Ret is the program result.
	Ret uint64
	// Output is the printed output.
	Output string
	// Invocations counts parallel region entries.
	Invocations int64
	// SimTime is the run's simulated execution time (see specrt/sim.go for
	// the model): the steps interpreted outside parallel regions, plus
	// spawn + slowest worker + join per region invocation.
	SimTime int64
}

// RunStatic executes a DOALL-only program once, in program order, and
// prices each region invocation as if its iterations were dealt cyclically
// to a fleet of workers: iteration i of [lo, hi) is charged to worker
// (i−lo) mod W', W' = min(workers, hi−lo). Running the iterations in order
// is exact because StaticBlockers admits only loops with no carried memory
// or scalar dependence, no live-out and no I/O, so every schedule leaves
// the same memory and output.
func RunStatic(p *StaticParallelized, workers int, args ...uint64) (*StaticRun, error) {
	if workers < 1 {
		workers = 1
	}
	master := interp.New(p.Mod, vm.NewAddressSpace())
	if err := master.LayOutGlobals(); err != nil {
		return nil, err
	}
	// One iteration interpreter over the master's space, as specrt's
	// sequential recovery runs a range.
	iter := interp.NewShared(master.Program(), master.AS)
	iter.AdoptLayout(master.GlobalLayout())
	iter.Out = master.Out
	regions := make(map[*ir.Function]*transform.Region, len(p.Regions))
	for _, r := range p.Regions {
		regions[r.RegionFn] = r
	}
	run := &StaticRun{}
	master.Hooks.CallOverride = func(fr *interp.Frame, in *ir.Instr, callee *ir.Function, args []uint64) (uint64, bool, error) {
		r := regions[callee]
		if r == nil {
			return 0, false, nil
		}
		run.Invocations++
		lo, hi := int64(args[0]), int64(args[1])
		if hi <= lo {
			return 0, true, nil
		}
		fleet := min(int64(workers), hi-lo)
		shares := make([]int64, fleet)
		callArgs := append([]uint64{0}, args[2:]...)
		for i := lo; i < hi; i++ {
			callArgs[0] = uint64(i)
			before := iter.Steps
			if _, err := iter.Call(r.IterFn, callArgs...); err != nil {
				return 0, true, fmt.Errorf("doall iteration %d: %w", i, err)
			}
			shares[(i-lo)%fleet] += iter.Steps - before
		}
		run.SimTime += fleet*(specrt.SimSpawnPerWorker+specrt.SimJoinPerWorker) + slices.Max(shares)
		return 0, true, nil
	}
	ret, err := master.Run(args...)
	if err != nil {
		return nil, err
	}
	run.Ret, run.Output = ret, master.Out.String()
	run.SimTime += master.Steps
	return run, nil
}
