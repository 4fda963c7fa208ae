// Command privateer-bench renders the paper's evaluation: Table 1,
// Table 3, and Figures 6-9 (see DESIGN.md's experiment index), plus the
// stage-off vs stage-on variants (elision, staticsep, ablation) that share
// one table and runner in internal/bench/variants.go. Every number is a
// count or a ratio of simulated times ("sim"), so the output is the same on
// every host; wall-clock speed is measured only by benchmark/.
//
// Usage:
//
//	privateer-bench                    # everything, ref inputs (~1 minute)
//	privateer-bench -experiment fig6
//	privateer-bench -quick             # scaled-down sweep on train inputs
//	privateer-bench -programs dijkstra,enc-md5 -experiment fig7
//	privateer-bench -experiment staticsep -json   # one variant, machine-readable
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"privateer/internal/bench"
	"privateer/internal/obs"
)

// An experiment is one -experiment value. It renders text; the
// variant-table rows return their report instead, which -json can marshal.
type experiment struct {
	name   string
	text   func(bench.Config) (string, error)
	report func(bench.Config) (*bench.VariantReport, error)
}

// experiments is every -experiment value, in help order.
var experiments = []experiment{
	{name: "all", text: onSuite((*bench.Suite).All)},
	{name: "table1", text: func(bench.Config) (string, error) { return bench.Table1(), nil }},
	{name: "table3", text: onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Table3()) })},
	{name: "fig6", text: onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig6()) })},
	{name: "fig7", text: onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig7()) })},
	{name: "fig8", text: onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig8()) })},
	{name: "fig9", text: onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig9()) })},
	{name: "ablation", text: onSuite(ablations)},
	{name: "elision", report: variant("elision")},
	{name: "staticsep", report: variant("staticsep")},
}

// experimentNames lists the -experiment values for the flag's help.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		experiment = flag.String("experiment", "all",
			experimentNames()+" (elision and staticsep are rows of the stage-off vs stage-on variant table)")
		input    = flag.String("input", "", "input class override: train, ref, alt, huge")
		quick    = flag.Bool("quick", false, "scaled-down configuration (train inputs)")
		programs = flag.String("programs", "", "comma-separated subset of benchmarks; an unknown name is an error")
		workers  = flag.Int("workers", 0, "machine size override for fig7/fig9")
		jsonOut  = flag.Bool("json", false, "machine-readable output (elision, staticsep); an error elsewhere")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the speculation lifecycle")
	)
	flag.Parse()
	if err := run(os.Stdout, *experiment, *input, *quick, *programs, *workers, *jsonOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name, input string, quick bool, programs string, workers int, jsonOut bool, traceOut string) error {
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	if input != "" {
		cfg.Input = input
	} else if (name == "elision" || name == "staticsep") && !quick {
		// These experiments exist to exercise the ~100x inputs.
		cfg.Input = "huge"
	}
	if programs != "" {
		cfg.Programs = strings.Split(programs, ",")
	}
	if workers > 0 {
		cfg.FixedWorkers = workers
	}

	var exp *experiment
	for i := range experiments {
		if experiments[i].name == name {
			exp = &experiments[i]
			break
		}
	}
	switch {
	case exp == nil:
		return fmt.Errorf("unknown experiment %q", name)
	case jsonOut && exp.report == nil:
		return fmt.Errorf("experiment %q has no -json output", name)
	}

	// Tracing: events stream into a ring collector; after the experiment the
	// retained window is exported.
	var collector *obs.Collector
	if traceOut != "" {
		collector = obs.NewCollector(1 << 16)
		cfg.Trace = obs.NewTracer(collector)
	}

	var out string
	var err error
	if exp.report == nil {
		out, err = exp.text(cfg)
	} else if rep, rerr := exp.report(cfg); rerr != nil {
		err = rerr
	} else if jsonOut {
		var b []byte
		b, err = json.MarshalIndent(rep, "", "  ")
		out = string(b)
	} else {
		out = rep.Format()
	}
	if out != "" {
		fmt.Fprintln(w, out)
	}
	// A requested trace is written even when the experiment failed: the
	// events up to the failure are what explains it.
	if collector != nil {
		err = errors.Join(err, writeTrace(traceOut, collector))
	}
	return err
}

// writeTrace exports the collector's retained window as a Chrome trace.
func writeTrace(path string, collector *obs.Collector) error {
	events := collector.Events()
	if dropped := collector.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "privateer-bench: trace ring overflowed; oldest %d of %d events dropped\n",
			dropped, collector.Total())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "privateer-bench: wrote %d events to %s\n", len(events), path)
	return nil
}

// onSuite runs a text-only experiment over a prepared suite.
func onSuite(f func(*bench.Suite) (string, error)) func(bench.Config) (string, error) {
	return func(cfg bench.Config) (string, error) {
		suite, err := bench.NewSuite(cfg)
		if err != nil {
			return "", err
		}
		return f(suite)
	}
}

// variant runs one row of the variant table.
func variant(name string) func(bench.Config) (*bench.VariantReport, error) {
	return func(cfg bench.Config) (*bench.VariantReport, error) { return bench.RunVariant(cfg, name) }
}

// formatted renders a text-only experiment's result.
func formatted[R interface{ Format() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

// ablations runs the three ablation studies and concatenates their tables.
func ablations(s *bench.Suite) (string, error) {
	cp, err := s.AblationCheckpointPeriod("dijkstra",
		[]int64{1, 2, 4, 8, 16, 32, 64}, 0.03)
	if err != nil {
		return "", err
	}
	el, err := bench.RunVariant(s.Cfg, "ablation")
	if err != nil {
		return "", err
	}
	vp, err := bench.AblationValuePrediction(s.Cfg)
	if err != nil {
		return "", err
	}
	return cp.Format() + "\n" + el.Format() + "\n" + vp.Format(), nil
}
