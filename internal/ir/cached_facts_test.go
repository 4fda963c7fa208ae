package ir_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/progs"
	"privateer/internal/randprog"
	"privateer/internal/transform"
)

// The static stages compute each fact once — the points-to sets, the
// region's function set, the operand counts behind ir.ReduxUpdate — and
// answer queries from it. These tests hold those facts to a fresh
// computation over a corpus: the five paper programs at alt and randprog
// seeds 1–16.

// factsProgram is one corpus program and its profiling input.
type factsProgram struct {
	name  string
	build func() *ir.Module
	train []uint64
}

func factsCorpus() []factsProgram {
	var out []factsProgram
	for _, p := range progs.All() {
		out = append(out, factsProgram{name: p.Name + "/alt", build: func() *ir.Module { return p.Build(p.Alt) }})
	}
	for seed := int64(1); seed <= 16; seed++ {
		cfg := randprog.DefaultConfig(seed)
		out = append(out, factsProgram{name: fmt.Sprintf("rand%d", seed),
			build: func() *ir.Module { return randprog.Generate(cfg) },
			train: []uint64{randprog.TrainTrips(cfg)}})
	}
	return out
}

// candidate is one hot loop of a fresh build of its program, profiled and
// analysed as core.ParallelizeAblated profiles and analyses it.
type candidate struct {
	mod  *ir.Module
	l    *ir.Loop
	prof *profiling.Profile
	pt   *analysis.PointsTo
}

// eachCandidate hands every hot loop of every corpus program, each on a
// fresh build, to visit; visit runs the pipeline's per-loop stages.
func eachCandidate(t *testing.T, visit func(t *testing.T, c candidate)) {
	for _, p := range factsCorpus() {
		for i := 0; ; i++ {
			mod := p.build()
			prof, err := profiling.Run(mod, p.train...)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			hot := prof.HotLoops()
			if i == len(hot) {
				break
			}
			t.Run(fmt.Sprintf("%s/%s", p.name, hot[i].Loop), func(t *testing.T) {
				visit(t, candidate{mod, hot[i].Loop, prof, analysis.ComputePointsTo(mod)})
			})
		}
	}
}

// apply runs classify, the speculative plan, the separation prover and
// transform.Apply on c's loop, as core.ParallelizeAblated does for a loop it
// has not rejected. It reports false for a loop the plan blocks.
func apply(t *testing.T, c candidate) bool {
	a := classify.Classify(c.l, c.prof, classify.Options{})
	plan := deps.SpeculativeBlockers(c.l, c.prof, a)
	if len(plan.Blockers) > 0 {
		return false
	}
	a.Sep = analysis.ProveSeparation(c.l, c.pt, analysis.SepCandidates{
		ReadOnly: a.ReadOnly, ShortLived: a.ShortLived, Private: a.Private, Redux: a.Redux,
	})
	if _, err := transform.Apply(c.mod, c.l, c.prof, a, plan, c.pt, transform.Options{}); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestPipelineLeavesPointsToUnchanged: ValueObjects hands out the
// analysis' own sets, so no stage may write to one. A second
// ComputePointsTo over the untouched module is the deep copy every set is
// compared with after the stages ran.
func TestPipelineLeavesPointsToUnchanged(t *testing.T) {
	applied := 0
	eachCandidate(t, func(t *testing.T, c candidate) {
		want := analysis.ComputePointsTo(c.mod)
		if !reflect.DeepEqual(c.pt, want) {
			t.Fatal("ComputePointsTo is not deterministic: no copy to compare with")
		}
		if apply(t, c) {
			applied++
		}
		if !reflect.DeepEqual(c.pt, want) {
			t.Error("a points-to set changed while classify, the prover and the transform ran")
		}
		if s := c.pt.ValueObjects(&ir.Function{}, c.l.Header.Instrs[0]); len(s) != 1 || !s[analysis.Unknown] {
			t.Errorf("the shared unknown set now reads %v", s.Names())
		}
	})
	if applied == 0 {
		t.Fatal("no candidate loop was transformed")
	}
}

// TestCachedFactsExact: the transform's region set, computed once when
// Apply starts, is still ir.RegionFuncs after Apply; and every reduction
// query a use index answers — in classify, in the prover and in the
// transform — equals a fresh ir.ReduxUpdate on the IR as it stands when
// the consumer reads it.
func TestCachedFactsExact(t *testing.T) {
	var answers, updates int
	var mismatch []string
	stop := ir.WatchIndexedRedux(func(st, load *ir.Instr, kind ir.ReduxKind, size int64, ok bool) {
		answers++
		if ok {
			updates++
		}
		fl, fk, fs, fok := ir.ReduxUpdate(st)
		if fl != load || fk != kind || fs != size || fok != ok {
			mismatch = append(mismatch, fmt.Sprintf("%s in %s: indexed (%v %v %d %v), fresh (%v %v %d %v)",
				st, st.Blk.Fn.Name, load, kind, size, ok, fl, fk, fs, fok))
		}
	})
	defer stop()
	eachCandidate(t, func(t *testing.T, c candidate) {
		before, reenters := ir.RegionFuncs(c.l)
		if reenters {
			t.Fatal("the corpus holds a loop that re-enters its function")
		}
		if !apply(t, c) {
			return
		}
		if after, _ := ir.RegionFuncs(c.l); !slices.Equal(before, after) {
			t.Errorf("region functions %v before Apply, %v after", before, after)
		}
	})
	for _, m := range mismatch {
		t.Error(m)
	}
	if updates == 0 || updates == answers {
		t.Fatalf("%d indexed answers, %d of them reduction updates: the corpus exercises neither outcome", answers, updates)
	}
}
