package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// The elision experiment measures what the transform postprocess pass buys:
// joining adjacent privacy checks into spans, eliminating dominated checks,
// hoisting invariant checks, promoting affine per-iteration checks to one
// preheader span, and dropping separation checks whose underlying object was
// already checked. The "before" build disables only the postprocess pass
// (core.Options.DisablePostprocess); everything else — allocation routing,
// check insertion, outlining, the runtime — is identical, so the wall-clock
// delta isolates the pass. Every row asserts the elided run reproduces the
// unelided run byte for byte, and compares both against the sequential
// reference.

// ElisionRow is one benchmark program run speculatively with the postprocess
// pass disabled ("before") and enabled ("after").
type ElisionRow struct {
	// Name and Input identify the workload.
	Name  string `json:"name"`
	Input string `json:"input"`
	// Workers is the speculative worker count used.
	Workers int `json:"workers"`

	// Static pass counters, summed over the program's parallel regions
	// (zero in the before build by construction).
	Joined          int `json:"joined"`
	Eliminated      int `json:"eliminated"`
	InvPromoted     int `json:"inv_promoted"`
	DensePromoted   int `json:"dense_promoted"`
	SparsePromoted  int `json:"sparse_promoted"`
	HeapRedundantUO int `json:"heap_redundant_uo"`

	// BeforeNS / AfterNS are the speculative-run wall clocks (minimum over
	// elisionReps runs) and Speedup is BeforeNS / AfterNS. Wall clock
	// measures the interpreter on this host — noisy, and dominated by
	// interpretation on compute-bound programs — so the headline numbers
	// are the deterministic simulated-time ones below (see sim.go for why
	// the repo reports simulated time everywhere).
	BeforeNS int64   `json:"before_ns"`
	AfterNS  int64   `json:"after_ns"`
	SeqNS    int64   `json:"seq_ns"`
	Speedup  float64 `json:"speedup"`
	// BeforeSim / AfterSim are the whole-program simulated times of the
	// two builds and SimSpeedup their ratio — the deterministic,
	// host-independent effect of the pass. SeqSteps is the unmodified
	// sequential program's step count, and EndToEnd is
	// SeqSteps / AfterSim: the paper's Figure 6 whole-program speedup,
	// measured on the elided build.
	BeforeSim  int64   `json:"before_sim"`
	AfterSim   int64   `json:"after_sim"`
	SeqSteps   int64   `json:"seq_steps"`
	SimSpeedup float64 `json:"sim_speedup"`
	EndToEnd   float64 `json:"end_to_end"`

	// BeforeChecks / AfterChecks count dynamic privacy checks executed
	// (reads + writes; a span counts once however many bytes it covers).
	BeforeChecks int64 `json:"before_checks"`
	AfterChecks  int64 `json:"after_checks"`
	// BeforePrivNS / AfterPrivNS are the wall clocks inside those checks.
	BeforePrivNS int64 `json:"before_priv_ns"`
	AfterPrivNS  int64 `json:"after_priv_ns"`

	// BaselineMatch reports whether the elided run reproduced the unelided
	// run's return value and output byte for byte (must always hold).
	BaselineMatch bool `json:"baseline_match"`
	// SeqMatch additionally compares both against the sequential reference
	// (false only for FP-reduction fold-order differences, as elsewhere).
	SeqMatch bool `json:"seq_match"`
}

// ElisionReport bundles the elision experiment's measurements.
type ElisionReport struct {
	// Input is the program input class measured ("huge" unless -quick).
	Input string `json:"input"`
	// Programs holds one row per benchmark.
	Programs []ElisionRow `json:"programs"`
}

// JSON renders the report machine-readably.
func (r *ElisionReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders the report as an aligned before/after table.
func (r *ElisionReport) Format() string {
	var sb strings.Builder
	sb.WriteString("Check elision & span promotion: postprocess pass off vs on (wall clock)\n\n")
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
		rows = append(rows, []string{
			m.Name,
			m.Input,
			fmt.Sprintf("%d", m.Joined),
			fmt.Sprintf("%d", m.Eliminated),
			fmt.Sprintf("%d", m.InvPromoted),
			fmt.Sprintf("%d", m.DensePromoted),
			fmt.Sprintf("%d", m.SparsePromoted),
			fmt.Sprintf("%d", m.HeapRedundantUO),
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
	sb.WriteString(fmt.Sprintf("programs (%s inputs, %d workers): counters are static sites, checks are dynamic,\n"+
		"elide columns are wall clock / simulated time, end-to-end is the Figure 6 metric on the elided build\n",
		r.Input, wallWorkers))
	sb.WriteString(table([]string{
		"program", "input", "join", "elim", "inv", "dense", "sparse", "uo",
		"before checks", "after checks", "before ms", "after ms", "elide",
		"elide (sim)", "end-to-end", "=base", "=seq"}, rows))
	if best := r.bestSpeedup(); best > 0 {
		sb.WriteString(fmt.Sprintf("\nheadline: elision cuts dynamic checks up to %.0fx and speculative "+
			"wall clock up to %.1fx;\n", r.bestCheckCut(), best))
		if worst := r.worstEndToEnd(); worst >= 1 {
			sb.WriteString(fmt.Sprintf("every elided run beats sequential end-to-end (worst %.1fx) "+
				"and is bit-identical to the unelided build\n", worst))
		} else {
			sb.WriteString(fmt.Sprintf("every row is bit-identical to the unelided build "+
				"(end-to-end bottoms at %.1fx — these inputs are too small to amortize spawn)\n", worst))
		}
	}
	return sb.String()
}

func (r *ElisionReport) bestSpeedup() float64 {
	best := 0.0
	for _, m := range r.Programs {
		if m.Speedup > best {
			best = m.Speedup
		}
	}
	return best
}

func (r *ElisionReport) worstEndToEnd() float64 {
	worst := 0.0
	for _, m := range r.Programs {
		if worst == 0 || m.EndToEnd < worst {
			worst = m.EndToEnd
		}
	}
	return worst
}

func (r *ElisionReport) bestCheckCut() float64 {
	best := 0.0
	for _, m := range r.Programs {
		if m.AfterChecks > 0 {
			if cut := float64(m.BeforeChecks) / float64(m.AfterChecks); cut > best {
				best = cut
			}
		}
	}
	return best
}

// elisionReps: wall-clock minima over this many speculative runs per mode.
const elisionReps = 3

// elisionRun parallelizes a freshly built module with the given postprocess
// setting and times core.Run, returning the best wall clock, the last run's
// output/result, the last run's privacy-check stats, and the summed static
// pass counters. build must return a fresh module per call (the
// transformation mutates in place).
func elisionRun(build func() *ir.Module, disable bool, workers, reps int) (row elisionModeResult, err error) {
	par, err := core.Parallelize(build(), core.Options{DisablePostprocess: disable})
	if err != nil {
		return row, err
	}
	for _, ri := range par.Regions {
		st := ri.TStats
		row.Joined += st.Joined
		row.Eliminated += st.Eliminated
		row.InvPromoted += st.InvPromoted
		row.DensePromoted += st.DensePromoted
		row.SparsePromoted += st.SparsePromoted
		row.HeapRedundantUO += st.HeapRedundantUO
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
		row.Checks = st.PrivReadChecks + st.PrivWriteChecks
		row.PrivNS = st.PrivReadNS + st.PrivWriteNS
	}
	return row, nil
}

type elisionModeResult struct {
	NS     int64
	Sim    int64
	Out    string
	Ret    uint64
	Checks int64
	PrivNS int64

	Joined, Eliminated, InvPromoted                int
	DensePromoted, SparsePromoted, HeapRedundantUO int
}

// RunElision measures the elision experiment: one row per configured
// benchmark, before/after the postprocess pass. quick lowers the repetition
// count (the input class comes from cfg — the driver defaults it to "huge").
func RunElision(cfg Config, quick bool) (*ElisionReport, error) {
	reps := elisionReps
	if quick {
		reps = 1
	}
	rep := &ElisionReport{Input: cfg.Input}
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		in, err := inputFor(p, cfg.Input)
		if err != nil {
			return nil, err
		}
		row := ElisionRow{Name: p.Name, Input: in.Name, Workers: wallWorkers}

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
		before, err := elisionRun(build, true, wallWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s before: %w", p.Name, err)
		}
		after, err := elisionRun(build, false, wallWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s after: %w", p.Name, err)
		}

		row.Joined, row.Eliminated = after.Joined, after.Eliminated
		row.InvPromoted = after.InvPromoted
		row.DensePromoted, row.SparsePromoted = after.DensePromoted, after.SparsePromoted
		row.HeapRedundantUO = after.HeapRedundantUO
		row.BeforeNS, row.AfterNS = before.NS, after.NS
		row.Speedup = ratio(before.NS, after.NS)
		row.BeforeSim, row.AfterSim = before.Sim, after.Sim
		row.SimSpeedup = ratio(before.Sim, after.Sim)
		row.EndToEnd = ratio(row.SeqSteps, after.Sim)
		row.BeforeChecks, row.AfterChecks = before.Checks, after.Checks
		row.BeforePrivNS, row.AfterPrivNS = before.PrivNS, after.PrivNS
		row.BaselineMatch = before.Out == after.Out && before.Ret == after.Ret
		row.SeqMatch = row.BaselineMatch && after.Ret == seqRet && after.Out == seqOut
		rep.Programs = append(rep.Programs, row)
	}
	return rep, nil
}
