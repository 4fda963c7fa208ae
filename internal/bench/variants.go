package bench

import (
	"fmt"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/transform"
)

// A variant is one with/without comparison of a pipeline stage. Every
// program is compiled twice — "before" with the stage switched off by one
// core.Ablation, "after" with the production pipeline — and both builds
// run under the same runtime configuration, so the delta isolates the
// stage: allocation routing, outlining and the runtime are identical.
// Every row asserts the after build reproduces the before build byte for
// byte and compares both against the sequential reference.
//
// To add a comparison, add a row to variants, keyed by the privateer-bench
// -experiment name that selects it: what the before build switches off, which dynamic checks the
// stage is supposed to remove, and the transform.Stats counters that show
// what it rewrote. The runner, the report, the table and the gates in
// TestVariantTable are shared.
type variant struct {
	title string
	// off is the before build's ablation.
	off core.Ablation
	// paperMachine runs the variant at Config.FixedWorkers (the paper's
	// machine size, like the figures) instead of goldenWorkers.
	paperMachine bool
	// checks picks the dynamic checks the stage removes.
	checks func(specrt.Stats) int64
	// counters are the after build's static counters, in column order.
	counters []counter
}

// counter is one static transform.Stats counter of a variant.
type counter struct {
	// key is the JSON key under VariantRow.Static.
	key string
	// col is the table column; "" keeps the counter out of the table.
	col string
	get func(*transform.Stats) int
}

func privChecks(st specrt.Stats) int64 { return st.PrivReadChecks + st.PrivWriteChecks }

var variants = map[string]*variant{
	"elision": {
		title:  "Check elision & span promotion: postprocess pass off vs on",
		off:    core.Ablation{Transform: transform.Options{DisablePostprocess: true}},
		checks: privChecks,
		counters: []counter{
			{"joined", "join", func(s *transform.Stats) int { return s.Joined }},
			{"eliminated", "elim", func(s *transform.Stats) int { return s.Eliminated }},
			{"inv_promoted", "inv", func(s *transform.Stats) int { return s.InvPromoted }},
			{"dense_promoted", "dense", func(s *transform.Stats) int { return s.DensePromoted }},
			{"sparse_promoted", "sparse", func(s *transform.Stats) int { return s.SparsePromoted }},
			{"heap_redundant_uo", "uo", func(s *transform.Stats) int { return s.HeapRedundantUO }},
		},
	},
	"staticsep": {
		title:    "Static separation prover: proofs off vs on (elision enabled in both builds)",
		off:      core.Ablation{DisableStaticSep: true},
		checks:   func(st specrt.Stats) int64 { return privChecks(st) + st.SeparationChecks },
		counters: staticSepCounters(),
	},
	"ablation": {
		title:        "Ablation: static separation-check elision off vs on",
		off:          core.Ablation{Transform: transform.Options{DisableElision: true}},
		paperMachine: true,
		checks:       func(st specrt.Stats) int64 { return st.SeparationChecks },
		counters: []counter{
			{"separation_elided", "elided", func(s *transform.Stats) int { return s.SeparationElided }},
		},
	},
}

// staticSepCounters: the proven-object total, one counter per proof rule,
// and the dynamic machinery the proofs dropped.
func staticSepCounters() []counter {
	cs := []counter{{"proven_objects", "proven", func(s *transform.Stats) int {
		n := 0
		for _, c := range s.ProvenByRule {
			n += c
		}
		return n
	}}}
	for _, rule := range analysis.Rules {
		rule := rule
		cs = append(cs, counter{string(rule), string(rule),
			func(s *transform.Stats) int { return s.ProvenByRule[rule] }})
	}
	return append(cs,
		counter{"checks_discharged", "chk-", func(s *transform.Stats) int { return s.StaticProven }},
		counter{"priv_marks_dropped", "marks-", func(s *transform.Stats) int { return s.StaticPrivMarksDropped }},
		counter{"redux_marks_dropped", "", func(s *transform.Stats) int { return s.StaticReduxMarksDropped }})
}

// VariantRow is one benchmark program run speculatively without ("before")
// and with ("after") the variant's stage.
type VariantRow struct {
	// Name is the benchmark's name.
	Name string `json:"name"`
	// Input is the input class measured.
	Input string `json:"input"`
	// Workers is the speculative worker count used.
	Workers int `json:"workers"`

	// Static holds the variant's static counters on the after build,
	// summed over the program's parallel regions (static sites, not
	// dynamic events; zero in the before build by construction).
	Static map[string]int `json:"static"`

	// BeforeSim is the before build's whole-program simulated time (see
	// sim.go).
	BeforeSim int64 `json:"before_sim"`
	// AfterSim is the after build's.
	AfterSim int64 `json:"after_sim"`
	// SeqSteps is the unmodified sequential program's step count.
	SeqSteps int64 `json:"seq_steps"`
	// SimSpeedup is BeforeSim over AfterSim: the deterministic,
	// host-independent effect of the stage.
	SimSpeedup float64 `json:"sim_speedup"`
	// EndToEndBefore is SeqSteps over BeforeSim, the paper's Figure 6
	// whole-program simulated speedup of the before build.
	EndToEndBefore float64 `json:"end_to_end_before"`
	// EndToEnd is SeqSteps over AfterSim, the same for the after build.
	EndToEnd float64 `json:"end_to_end"`

	// BeforeChecks counts the dynamic checks the variant watches in the
	// before build (a span counts once however many bytes it covers).
	BeforeChecks int64 `json:"before_checks"`
	// AfterChecks counts them in the after build.
	AfterChecks int64 `json:"after_checks"`
	// ProvenRangeBytes is the after build's proven-object footprint
	// installed wholesale per interval instead of via privacy metadata.
	ProvenRangeBytes int64 `json:"proven_range_bytes"`

	// BaselineMatch reports whether the after build reproduced the before
	// build's return value and output byte for byte (must always hold).
	BaselineMatch bool `json:"baseline_match"`
	// SeqMatch additionally compares both against the sequential reference
	// (false only for FP-reduction fold-order differences, as elsewhere).
	SeqMatch bool `json:"seq_match"`
}

// VariantReport is one variant measured over the configured programs.
type VariantReport struct {
	// Variant is the variant's name.
	Variant string `json:"variant"`
	// Title is its one-line description.
	Title string `json:"title"`
	// Input is the program input class measured.
	Input string `json:"input"`
	// Programs holds one row per benchmark.
	Programs []VariantRow `json:"programs"`

	counters []counter
	workers  int
}

// Format renders the report as an aligned before/after table.
func (r *VariantReport) Format() string {
	header := []string{"program", "input"}
	for _, c := range r.counters {
		if c.col != "" {
			header = append(header, c.col)
		}
	}
	header = append(header, "before checks", "after checks",
		"sim speedup", "sim e2e before", "sim e2e after", "=base", "=seq")

	rows := make([][]string, 0, len(r.Programs))
	for _, m := range r.Programs {
		row := []string{m.Name, m.Input}
		for _, c := range r.counters {
			if c.col != "" {
				row = append(row, fmt.Sprintf("%d", m.Static[c.key]))
			}
		}
		base, seq := "yes", "yes"
		if !m.BaselineMatch {
			base = "NO"
		}
		if !m.SeqMatch {
			seq = "fp-bits"
		}
		rows = append(rows, append(row,
			fmt.Sprintf("%d", m.BeforeChecks),
			fmt.Sprintf("%d", m.AfterChecks),
			fmt.Sprintf("%.2fx", m.SimSpeedup),
			fmt.Sprintf("%.2fx", m.EndToEndBefore),
			fmt.Sprintf("%.2fx", m.EndToEnd),
			base, seq))
	}
	return fmt.Sprintf("%s\n\nprograms (%s inputs, %d workers): counter columns are static sites of the after build,\n"+
		"checks are dynamic, sim speedup is before over after in simulated time,\n"+
		"sim e2e is the Figure 6 metric (sequential steps over simulated time) of each build,\n"+
		"=base says the after build reproduced the before build byte for byte\n",
		r.Title, r.Input, r.workers) + obs.Table(header, rows)
}

// RunVariant measures the named variant: one row per configured benchmark.
func RunVariant(cfg Config, name string) (*VariantReport, error) {
	v := variants[name]
	if v == nil {
		return nil, fmt.Errorf("unknown variant %q", name)
	}
	selected, err := selectPrograms(cfg.Programs)
	if err != nil {
		return nil, err
	}
	rtCfg := specrt.Config{Workers: goldenWorkers, Trace: cfg.Trace}
	if v.paperMachine {
		rtCfg.Workers = cfg.FixedWorkers
	}
	rep := &VariantReport{Variant: name, Title: v.title, Input: cfg.Input,
		counters: v.counters, workers: rtCfg.Workers}
	for _, p := range selected {
		in, err := inputFor(p, cfg.Input)
		if err != nil {
			return nil, err
		}
		row, err := v.run(p, in, rtCfg)
		if err != nil {
			return nil, err
		}
		rep.Programs = append(rep.Programs, row)
	}
	return rep, nil
}

// variantBuild is one build's measurements.
type variantBuild struct {
	sim    int64
	out    string
	ret    uint64
	stats  specrt.Stats
	static map[string]int
}

// build parallelizes a fresh module under abl and runs it once: simulated
// time, counters and output are the same on every run.
func (v *variant) build(p *progs.Program, in progs.Input, abl core.Ablation,
	rtCfg specrt.Config) (b variantBuild, err error) {
	par, err := core.ParallelizeAblated(p.Build(in), core.Options{}, abl)
	if err != nil {
		return b, err
	}
	b.static = map[string]int{}
	for _, ri := range par.Regions {
		for _, c := range v.counters {
			b.static[c.key] += c.get(ri.TStats)
		}
	}
	rt, ret, err := core.Run(par, rtCfg)
	if err != nil {
		return b, err
	}
	b.out, b.ret = rt.Output(), ret
	b.sim = rt.Record.Sim.Time()
	b.stats = rt.Record.Stats
	return b, nil
}

// run measures one program: the sequential reference, then the before and
// after builds.
func (v *variant) run(p *progs.Program, in progs.Input, rtCfg specrt.Config) (VariantRow, error) {
	row := VariantRow{Name: p.Name, Input: in.Name, Workers: rtCfg.Workers}

	seqIt, seqRet, err := runSequential(p, in)
	if err != nil {
		return row, err
	}
	row.SeqSteps = seqIt.Steps

	before, err := v.build(p, in, v.off, rtCfg)
	if err != nil {
		return row, fmt.Errorf("%s before: %w", p.Name, err)
	}
	after, err := v.build(p, in, core.Ablation{}, rtCfg)
	if err != nil {
		return row, fmt.Errorf("%s after: %w", p.Name, err)
	}

	row.Static = after.static
	row.BeforeSim, row.AfterSim = before.sim, after.sim
	row.SimSpeedup = ratio(before.sim, after.sim)
	row.EndToEndBefore = ratio(row.SeqSteps, before.sim)
	row.EndToEnd = ratio(row.SeqSteps, after.sim)
	row.BeforeChecks, row.AfterChecks = v.checks(before.stats), v.checks(after.stats)
	row.ProvenRangeBytes = after.stats.ProvenRangeBytes
	row.BaselineMatch = before.out == after.out && before.ret == after.ret
	row.SeqMatch = row.BaselineMatch && after.ret == seqRet && after.out == seqIt.Out.String()
	return row, nil
}
