package interp_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/vm"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/dispatch_ratio.golden from this run")

// dispatchTally is what one run of a module costs the decoded executor.
type dispatchTally struct {
	steps, dispatches int64
	// pairs counts, by "a → b", how often dispatch b followed dispatch a
	// inside one block: the sequences a further fused opcode could take.
	pairs map[string]int64
}

// tallyDispatch runs mod to completion and derives the tally without a
// counter in the dispatch loop: how often each block ran (OnEnter for entry
// blocks, OnBlock for the rest) times what the decoder made of that block.
// Every block here runs to its terminator, so the product is exact, and the
// weights must add up to the step count the run reports.
func tallyDispatch(t *testing.T, mod *ir.Module) dispatchTally {
	t.Helper()
	it := interp.New(mod, vm.NewAddressSpace())
	ran := map[*ir.Block]int64{}
	it.Hooks.OnEnter = func(fr *interp.Frame) { ran[fr.Fn.Entry()]++ }
	it.Hooks.OnBlock = func(_ *interp.Frame, _, to *ir.Block) { ran[to]++ }
	if _, err := it.Run(); err != nil {
		t.Fatalf("%s: %v", mod.Name, err)
	}
	tally := dispatchTally{steps: it.Steps, pairs: map[string]int64{}}
	var weighed int64
	decoded := map[*ir.Function]map[*ir.Block][]interp.DecodedEntry{}
	for b, n := range ran {
		if decoded[b.Fn] == nil {
			decoded[b.Fn] = interp.DecodedBlocks(it.Program(), b.Fn)
		}
		entries := decoded[b.Fn][b]
		tally.dispatches += n * int64(len(entries))
		for i, e := range entries {
			weighed += n * int64(e.Weight)
			if i > 0 {
				tally.pairs[entries[i-1].Op+" → "+e.Op] += n
			}
		}
	}
	if weighed != it.Steps {
		t.Errorf("%s: block counts × weights = %d steps, the run counted %d", mod.Name, weighed, it.Steps)
	}
	return tally
}

// topPairs renders the n most frequent pairs of tally with their share of
// the run's steps.
func topPairs(tally dispatchTally, n int) string {
	names := make([]string, 0, len(tally.pairs))
	for p := range tally.pairs {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool {
		if ci, cj := tally.pairs[names[i]], tally.pairs[names[j]]; ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	var sb strings.Builder
	for _, p := range names[:min(n, len(names))] {
		fmt.Fprintf(&sb, "    %5.1f%%  %s\n", 100*float64(tally.pairs[p])/float64(tally.steps), p)
	}
	return sb.String()
}

// TestDispatchRatio pins dispatches ÷ steps of the five paper programs at
// ref — the plain module and the one core.Parallelize leaves, run
// sequentially — and gates the plain ratio: the hoisting and the fused
// opcodes of decode.go exist to lower it. The figures are a property of the
// decoder and the programs, not of the host. Under -v it prints each
// program's most frequent adjacent pairs that are still two dispatches, the
// tally a further fused opcode has to come from (ROADMAP item 1(a)).
func TestDispatchRatio(t *testing.T) {
	if interp.RaceEnabled {
		t.Skip("a count the decoder fixes: 160M single-threaded steps under the race detector find nothing")
	}
	const perProgram, geomean = 0.75, 0.55
	var got strings.Builder
	logSum := 0.0
	all := progs.All()
	for _, p := range all {
		plain := tallyDispatch(t, p.Build(p.Ref))
		par, err := core.Parallelize(p.Build(p.Ref), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		spec := tallyDispatch(t, par.Mod)
		ratio := float64(plain.dispatches) / float64(plain.steps)
		fmt.Fprintf(&got, "%-14s plain %9d / %9d = %.3f   parallelized %9d / %9d = %.3f\n", p.Name,
			plain.dispatches, plain.steps, ratio,
			spec.dispatches, spec.steps, float64(spec.dispatches)/float64(spec.steps))
		if ratio > perProgram {
			t.Errorf("%s: %.3f dispatches per step, above %.2f", p.Name, ratio, perProgram)
		}
		logSum += math.Log(ratio)
		t.Logf("%s, plain, pairs left:\n%s", p.Name, topPairs(plain, 10))
		t.Logf("%s, parallelized, pairs left:\n%s", p.Name, topPairs(spec, 10))
	}
	gm := math.Exp(logSum / float64(len(all)))
	fmt.Fprintf(&got, "geomean of the plain ratios %.3f\n", gm)
	if gm > geomean {
		t.Errorf("geomean %.3f dispatches per step, above %.2f", gm, geomean)
	}

	const golden = "testdata/dispatch_ratio.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("dispatch ratios changed (regenerate with -update-golden if intended):\n got:\n%s want:\n%s", got.String(), want)
	}
}
