package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// The staticsep experiment measures what the static separation prover buys
// on top of the postprocess elision pass: objects proven read-only,
// iteration-private, or reduction-shaped at compile time run with no
// separation checks, no privacy marks, and no per-byte merge walks. The
// "before" build disables only the prover (core.Options.DisableStaticSep) —
// allocation routing, elision, outlining, and the runtime are identical, so
// the delta isolates the proofs. Every row asserts the proven build
// reproduces the elision-only build byte for byte, and compares both
// against the sequential reference.

// StaticSepRow is one benchmark program run speculatively with the static
// separation prover disabled ("before") and enabled ("after").
type StaticSepRow struct {
	// Name and Input identify the workload.
	Name  string `json:"name"`
	Input string `json:"input"`
	// Workers is the speculative worker count used.
	Workers int `json:"workers"`

	// ProvenObjects counts the objects the prover discharged across the
	// program's parallel regions, and ProvenByRule breaks them down by
	// winning rule (readonly/iterlocal/covered/affine/redux).
	ProvenObjects int            `json:"proven_objects"`
	ProvenByRule  map[string]int `json:"proven_by_rule"`
	// ChecksDischarged counts separation-check sites dropped, and
	// PrivMarksDropped / ReduxMarksDropped the per-access privacy marks
	// and redux markers the proofs made unnecessary (static sites).
	ChecksDischarged  int `json:"checks_discharged"`
	PrivMarksDropped  int `json:"priv_marks_dropped"`
	ReduxMarksDropped int `json:"redux_marks_dropped"`

	// BeforeChecks / AfterChecks count residual dynamic checks executed
	// (privacy reads + writes + separation checks).
	BeforeChecks int64 `json:"before_checks"`
	AfterChecks  int64 `json:"after_checks"`
	// ProvenRangeBytes is the proven-object footprint installed wholesale
	// per interval instead of via tracked privacy metadata.
	ProvenRangeBytes int64 `json:"proven_range_bytes"`

	// BeforeNS / AfterNS are speculative-run wall clocks (minimum over
	// staticSepReps runs); Speedup is BeforeNS / AfterNS. As everywhere in
	// the repo the deterministic headline is simulated time: BeforeSim /
	// AfterSim / SimSpeedup, plus EndToEnd = SeqSteps / AfterSim (the
	// Figure 6 metric measured on the proven build).
	BeforeNS   int64   `json:"before_ns"`
	AfterNS    int64   `json:"after_ns"`
	SeqNS      int64   `json:"seq_ns"`
	Speedup    float64 `json:"speedup"`
	BeforeSim  int64   `json:"before_sim"`
	AfterSim   int64   `json:"after_sim"`
	SeqSteps   int64   `json:"seq_steps"`
	SimSpeedup float64 `json:"sim_speedup"`
	EndToEnd   float64 `json:"end_to_end"`

	// BaselineMatch reports whether the proven build reproduced the
	// elision-only build's return value and output byte for byte (must
	// always hold — the gate the driver enforces).
	BaselineMatch bool `json:"baseline_match"`
	// SeqMatch additionally compares both against the sequential reference
	// (false only for FP-reduction fold-order differences, as elsewhere).
	SeqMatch bool `json:"seq_match"`
}

// StaticSepReport bundles the staticsep experiment's measurements.
type StaticSepReport struct {
	// Input is the program input class measured ("huge" unless -quick).
	Input string `json:"input"`
	// Programs holds one row per benchmark.
	Programs []StaticSepRow `json:"programs"`
}

// JSON renders the report machine-readably.
func (r *StaticSepReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders the report as an aligned before/after table.
func (r *StaticSepReport) Format() string {
	var sb strings.Builder
	sb.WriteString("Static separation prover: proofs off vs on (elision enabled in both builds)\n\n")
	rows := make([][]string, 0, len(r.Programs))
	for _, m := range r.Programs {
		base := "yes"
		if !m.BaselineMatch {
			base = "NO"
		}
		seq := "yes"
		if !m.SeqMatch {
			seq = "fp-bits"
		}
		rules := make([]string, 0, len(analysis.Rules))
		for _, rule := range analysis.Rules {
			if n := m.ProvenByRule[string(rule)]; n > 0 {
				rules = append(rules, fmt.Sprintf("%s:%d", rule, n))
			}
		}
		rows = append(rows, []string{
			m.Name,
			m.Input,
			fmt.Sprintf("%d", m.ProvenObjects),
			strings.Join(rules, " "),
			fmt.Sprintf("%d", m.ChecksDischarged),
			fmt.Sprintf("%d", m.PrivMarksDropped),
			fmt.Sprintf("%d", m.BeforeChecks),
			fmt.Sprintf("%d", m.AfterChecks),
			fmt.Sprintf("%.1f", float64(m.BeforeNS)/1e6),
			fmt.Sprintf("%.1f", float64(m.AfterNS)/1e6),
			fmt.Sprintf("%.2fx", m.Speedup),
			fmt.Sprintf("%.2fx", m.SimSpeedup),
			fmt.Sprintf("%.2fx", m.EndToEnd),
			base,
			seq,
		})
	}
	sb.WriteString(fmt.Sprintf("programs (%s inputs, %d workers): proven/discharged/dropped are static sites,\n"+
		"checks are residual dynamic checks, prove columns are wall clock / simulated time\n",
		r.Input, wallWorkers))
	sb.WriteString(table([]string{
		"program", "input", "proven", "rules", "chk-", "marks-",
		"before checks", "after checks", "before ms", "after ms", "prove",
		"prove (sim)", "end-to-end", "=base", "=seq"}, rows))
	discharging := 0
	var bestCut float64
	for _, m := range r.Programs {
		if m.ProvenObjects > 0 {
			discharging++
		}
		if m.AfterChecks > 0 && m.BeforeChecks > 0 {
			if cut := float64(m.BeforeChecks) / float64(m.AfterChecks); cut > bestCut {
				bestCut = cut
			}
		}
	}
	if discharging > 0 {
		sb.WriteString(fmt.Sprintf("\nheadline: %d/%d programs statically discharge at least one object class; "+
			"residual dynamic checks drop up to %.1fx,\nevery proven run is bit-identical to the elision-only build\n",
			discharging, len(r.Programs), bestCut))
	}
	return sb.String()
}

// staticSepReps: wall-clock minima over this many speculative runs per mode.
const staticSepReps = 3

// staticSepModeResult is one build's measurements (prover off or on).
type staticSepModeResult struct {
	NS     int64
	Sim    int64
	Out    string
	Ret    uint64
	Checks int64

	ProvenObjects     int
	ProvenByRule      map[string]int
	ChecksDischarged  int
	PrivMarksDropped  int
	ReduxMarksDropped int
	ProvenRangeBytes  int64
}

// staticSepRun parallelizes a freshly built module with the given prover
// setting and times core.Run, returning the best wall clock, the last run's
// output/result and residual-check counts, and the summed static proof
// counters. build must return a fresh module per call.
func staticSepRun(build func() *ir.Module, disable bool, workers, reps int) (row staticSepModeResult, err error) {
	par, err := core.Parallelize(build(), core.Options{DisableStaticSep: disable})
	if err != nil {
		return row, err
	}
	row.ProvenByRule = map[string]int{}
	for _, ri := range par.Regions {
		st := ri.TStats
		row.ChecksDischarged += st.StaticProven
		row.PrivMarksDropped += st.StaticPrivMarksDropped
		row.ReduxMarksDropped += st.StaticReduxMarksDropped
		for rule, n := range st.ProvenByRule {
			row.ProvenObjects += n
			row.ProvenByRule[string(rule)] += n
		}
	}
	row.NS = -1
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		rt, ret, rerr := core.Run(par, specrt.Config{Workers: workers})
		d := time.Since(t0).Nanoseconds()
		if rerr != nil {
			return row, rerr
		}
		if row.NS < 0 || d < row.NS {
			row.NS = d
		}
		row.Out, row.Ret = rt.Output(), ret
		row.Sim = rt.Sim.Time()
		st := rt.Stats.Snapshot()
		row.Checks = st.PrivReadChecks + st.PrivWriteChecks + st.SeparationChecks
		row.ProvenRangeBytes = st.ProvenRangeBytes
	}
	return row, nil
}

// RunStaticSep measures the staticsep experiment: one row per configured
// benchmark, prover off ("before" — the elision-only build of the previous
// PR) versus on. quick lowers the repetition count (the input class comes
// from cfg — the driver defaults it to "huge").
func RunStaticSep(cfg Config, quick bool) (*StaticSepReport, error) {
	reps := staticSepReps
	if quick {
		reps = 1
	}
	rep := &StaticSepReport{Input: cfg.Input}
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		in, err := inputFor(p, cfg.Input)
		if err != nil {
			return nil, err
		}
		row := StaticSepRow{Name: p.Name, Input: in.Name, Workers: wallWorkers}

		t0 := time.Now()
		seqIt := interp.New(p.Build(in), vm.NewAddressSpace())
		seqRet, err := seqIt.Run()
		row.SeqNS = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s sequential: %w", p.Name, err)
		}
		seqOut := seqIt.Out.String()
		row.SeqSteps = seqIt.Steps

		build := func() *ir.Module { return p.Build(in) }
		before, err := staticSepRun(build, true, wallWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s before: %w", p.Name, err)
		}
		after, err := staticSepRun(build, false, wallWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s after: %w", p.Name, err)
		}

		row.ProvenObjects = after.ProvenObjects
		row.ProvenByRule = after.ProvenByRule
		row.ChecksDischarged = after.ChecksDischarged
		row.PrivMarksDropped = after.PrivMarksDropped
		row.ReduxMarksDropped = after.ReduxMarksDropped
		row.ProvenRangeBytes = after.ProvenRangeBytes
		row.BeforeNS, row.AfterNS = before.NS, after.NS
		row.Speedup = ratio(before.NS, after.NS)
		row.BeforeSim, row.AfterSim = before.Sim, after.Sim
		row.SimSpeedup = ratio(before.Sim, after.Sim)
		row.EndToEnd = ratio(row.SeqSteps, after.Sim)
		row.BeforeChecks, row.AfterChecks = before.Checks, after.Checks
		row.BaselineMatch = before.Out == after.Out && before.Ret == after.Ret
		row.SeqMatch = row.BaselineMatch && after.Ret == seqRet && after.Out == seqOut
		rep.Programs = append(rep.Programs, row)
	}
	return rep, nil
}
