package doall

import (
	"fmt"
	"sync"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// Simulated per-worker costs of starting and ending a parallel region.
// specrt's cost model (specrt/sim.go) is built on these same two constants,
// so Figure 7's comparison of the two schedulers uses one model.
const (
	// SimSpawnPerWorker models fork latency and address-space setup.
	SimSpawnPerWorker = 2500
	// SimJoinPerWorker models worker-completed signalling.
	SimJoinPerWorker = 400
)

// BaselineStats reports the non-speculative scheduler's counts. Only the
// master thread writes them, between worker fleets.
type BaselineStats struct {
	// Invocations counts parallel region entries.
	Invocations int64
	// SimRegionTime is the simulated time of all parallel invocations:
	// spawn + slowest worker + join per invocation (see specrt/sim.go for
	// the model).
	SimRegionTime int64
}

// Baseline executes a program whose loops were outlined by Outline in
// DOALL-only mode: iterations run in parallel with no privatization, no
// checks and no checkpoints. It is only sound for loops that passed
// StaticBlockers — the paper's Figure 7 comparison point.
//
// Worker isolation is per-worker COW address spaces whose privately-written
// bytes are diff-merged at the join; statically proven independence
// guarantees the merges never conflict.
type Baseline struct {
	// Workers is the worker count.
	Workers int
	// Regions maps region functions to their outlines.
	Regions map[*ir.Function]*Region
	// Stats accumulates the scheduler's counts.
	Stats BaselineStats
}

// NewBaseline prepares a DOALL-only scheduler for the given regions.
func NewBaseline(workers int, regions ...*Region) *Baseline {
	m := map[*ir.Function]*Region{}
	for _, r := range regions {
		m[r.RegionFn] = r
	}
	return &Baseline{Workers: workers, Regions: m}
}

// Attach installs the region interceptor on a master interpreter.
func (bl *Baseline) Attach(master *interp.Interp) {
	master.Hooks.CallOverride = func(fr *interp.Frame, in *ir.Instr, callee *ir.Function, args []uint64) (uint64, bool, error) {
		r := bl.Regions[callee]
		if r == nil {
			return 0, false, nil
		}
		return 0, true, bl.invoke(master, r, args)
	}
}

// invoke runs one parallel region: args are (lo, hi, live-ins...).
func (bl *Baseline) invoke(master *interp.Interp, r *Region, args []uint64) error {
	bl.Stats.Invocations++
	lo, hi := int64(args[0]), int64(args[1])
	live := args[2:]
	if hi <= lo {
		return nil
	}
	workers := bl.Workers
	if total := hi - lo; int64(workers) > total {
		workers = int(total)
	}

	spaces := make([]*vm.AddressSpace, workers)
	interps := make([]*interp.Interp, workers)
	for w := 0; w < workers; w++ {
		spaces[w] = master.AS.Clone()
		// Workers reuse the master's decoded program; the per-invocation
		// cost is the COW clone, not re-decoding the region functions.
		interps[w] = interp.NewShared(master.Program(), spaces[w])
		interps[w].AdoptLayout(master.GlobalLayout())
	}

	errs := make([]error, workers)
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			it := interps[w]
			callArgs := make([]uint64, 1+len(live))
			copy(callArgs[1:], live)
			for i := lo + int64(w); i < hi; i += int64(workers) {
				callArgs[0] = uint64(i)
				if _, err := it.Call(r.IterFn, callArgs...); err != nil {
					errs[w] = fmt.Errorf("doall worker %d, iteration %d: %w", w, i, err)
					return
				}
			}
			outs[w] = it.Out.String()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Simulated time: spawn + slowest worker + join (no validation or
	// checkpoint costs — the point of the non-speculative baseline).
	var maxSteps int64
	for w := 0; w < workers; w++ {
		if interps[w].Steps > maxSteps {
			maxSteps = interps[w].Steps
		}
	}
	bl.Stats.SimRegionTime += int64(workers)*(SimSpawnPerWorker+SimJoinPerWorker) + maxSteps

	// Join: merge each worker's privately-written bytes into the master.
	// Diffs are taken against a snapshot of the pre-region master pages so
	// that one worker's merge does not masquerade as another's writes.
	orig := map[uint64][]byte{}
	for w := 0; w < workers; w++ {
		spaces[w].DirtyPages(func(base uint64, data []byte) {
			if _, snap := orig[base]; snap {
				return
			}
			if pg, ok := master.AS.PageData(base); ok {
				orig[base] = append([]byte(nil), pg...)
			} else {
				orig[base] = nil // never touched: all zero
			}
		})
	}
	for w := 0; w < workers; w++ {
		spaces[w].DirtyPages(func(base uint64, data []byte) {
			ob := orig[base]
			for off := 0; off < vm.PageSize; off++ {
				var o byte
				if ob != nil {
					o = ob[off]
				}
				if data[off] != o {
					// The worker wrote these bytes; statically proven
					// independence means at most one worker writes any
					// byte.
					if err := master.AS.Write(base+uint64(off), 1, uint64(data[off])); err != nil {
						return
					}
				}
			}
		})
		// DOALL-only does not defer I/O; emit worker output as produced.
		master.Out.WriteString(outs[w])
	}
	return nil
}
