package analysis_test

// Golden regression test for the static separation prover: for each paper
// program, the exact set of proven objects (rule -> object names) on the
// train input is pinned. A legitimate prover improvement may add lines
// here; anything disappearing means a proof regressed.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/profiling"
	"privateer/internal/progs"
)

// proveProgram runs profile -> classify -> prover on every hot loop of p's
// train build and renders "loopN/rule: obj obj ..." lines.
func proveProgram(t *testing.T, p *progs.Program) []string {
	t.Helper()
	mod := p.Build(p.Train)
	prof, err := profiling.Run(mod)
	if err != nil {
		t.Fatalf("%s: profiling failed: %v", p.Name, err)
	}
	pt := analysis.ComputePointsTo(mod)
	var lines []string
	for i, li := range prof.HotLoops() {
		a := classify.Classify(li.Loop, prof, classify.Options{})
		res := analysis.ProveSeparation(li.Loop, pt, analysis.SepCandidates{
			ReadOnly:   a.ReadOnly,
			ShortLived: a.ShortLived,
			Private:    a.Private,
			Redux:      a.Redux,
		})
		for _, rule := range analysis.Rules {
			if ns := res.ByRule()[rule]; len(ns) > 0 {
				lines = append(lines, fmt.Sprintf("loop%d/%s: %s", i, rule, strings.Join(ns, " ")))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

func TestSepGolden(t *testing.T) {
	golden := map[string][]string{
		"052.alvinn": {
			"loop0/covered: main:hid_delta main:hidden_act main:out_act main:out_delta",
			"loop0/readonly: @inputs @targets",
			"loop0/redux: @toterr",
			"loop1/covered: main:hid_delta main:hidden_act main:out_act main:out_delta",
			"loop1/readonly: @inputs @targets @w1 @w2",
			"loop1/redux: @sumdw1 @sumdw2 @toterr",
			"loop10/readonly: @w2 main:out_delta",
			"loop11/readonly: @w2 main:hidden_act",
			"loop12/affine: @sumdw1",
			"loop12/redux: @w1",
			"loop13/covered: main:out_delta",
			"loop13/readonly: @targets main:out_act",
			"loop13/redux: @toterr",
			"loop14/affine: @sumdw2",
			"loop14/redux: @w2",
			"loop2/readonly: @inputs main:hid_delta",
			"loop2/redux: @sumdw1",
			"loop3/readonly: main:hid_delta",
			"loop3/redux: @sumdw1",
			"loop4/covered: main:hidden_act",
			"loop4/readonly: @inputs @w1",
			"loop5/readonly: @inputs @w1",
			"loop6/covered: main:hid_delta",
			"loop6/readonly: @w2 main:hidden_act main:out_delta",
			"loop7/readonly: main:hidden_act main:out_delta",
			"loop7/redux: @sumdw2",
			"loop8/covered: main:out_act",
			"loop8/readonly: @w2 main:hidden_act",
			"loop9/readonly: main:out_delta",
			"loop9/redux: @sumdw2",
		},
		"dijkstra": {
			"loop0/covered: @pathcost",
			"loop0/readonly: @adj",
			"loop1/readonly: @adj",
			"loop2/affine: @pathcost",
			"loop2/covered: enqueueQ:node",
			"loop2/readonly: @adj",
			"loop3/covered: @pathcost",
		},
		"blackscholes": {
			"loop0/readonly: @otime @otype @prices_ptr @rate @sptprice @strike @volatility",
			"loop1/covered: setup:prices",
			"loop1/readonly: @otime @otype @rate @sptprice @strike @volatility",
			"loop2/readonly: setup:prices",
			"loop3/readonly: setup:prices",
		},
		"swaptions": {
			"loop0/readonly: @factors @swaptions_arr",
			"loop1/covered: simulate:payoff_vec",
			"loop1/readonly: @factors simulate:path_matrix",
			"loop2/covered: simulate:disc_row simulate:path_row",
			"loop2/readonly: @factors",
			"loop3/readonly: simulate:path_row",
			"loop4/readonly: simulate:payoff_vec",
			"loop5/covered: setup:swaption_rec",
			"loop5/readonly: @seed_tab @strike_tab @swaptions_arr @years_tab",
			"loop6/readonly: @swaptions_arr setup:swaption_rec",
			"loop7/covered: @swaptions_arr",
		},
		"enc-md5": {
			"loop0/covered: @mdstate",
			"loop0/iterlocal: main:digest",
			"loop0/readonly: @Ttab @data @lengths @offsets",
			"loop1/readonly: @Ttab @data @padbuf",
			"loop2/covered: @padbuf",
			"loop3/covered: @padbuf",
			"loop3/readonly: @data",
		},
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			got := proveProgram(t, p)
			t.Logf("%s proven:\n  %s", p.Name, strings.Join(got, "\n  "))
			want, ok := golden[p.Name]
			if !ok {
				t.Fatalf("no golden entry for program %q", p.Name)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("proven-object set changed.\n got:\n  %s\nwant:\n  %s",
					strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
		})
	}
}
