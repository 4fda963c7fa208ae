// Command privateer-bench regenerates the paper's evaluation: Table 1,
// Table 3, and Figures 6-9 (see DESIGN.md's experiment index), plus the
// stage-off vs stage-on variants (elision, staticsep, ablation) that share
// one table and runner in internal/bench/variants.go.
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
	"os"
	"strings"

	"privateer/internal/bench"
	"privateer/internal/interp"
	"privateer/internal/obs"
	"privateer/internal/specrt"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"all, table1, table3, fig6, fig7, fig8, fig9, ablation, micro, obsoverhead, or one row of the stage-off vs stage-on variant table: elision, staticsep")
		input    = flag.String("input", "", "input class override: train, ref, alt, huge")
		quick    = flag.Bool("quick", false, "scaled-down configuration (train inputs)")
		programs = flag.String("programs", "", "comma-separated subset of benchmarks; an unknown name is an error")
		workers  = flag.Int("workers", 0, "machine size override for fig7/fig9")
		jsonOut  = flag.Bool("json", false, "machine-readable output (micro, elision, staticsep, obsoverhead); an error elsewhere")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the speculation lifecycle")
		serve    = flag.String("serve", "", "serve live introspection (/metrics, /vars, /spec, /debug/pprof) on this address while experiments run")
	)
	flag.Parse()
	if err := run(*experiment, *input, *quick, *programs, *workers, *jsonOut, *traceOut, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-bench:", err)
		os.Exit(1)
	}
}

func run(experiment, input string, quick bool, programs string, workers int, jsonOut bool, traceOut string, serve string) error {
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	if input != "" {
		cfg.Input = input
	} else if (experiment == "elision" || experiment == "staticsep") && !quick {
		// These experiments exist to exercise the ~100x inputs.
		cfg.Input = "huge"
	}
	if programs != "" {
		cfg.Programs = strings.Split(programs, ",")
	}
	if workers > 0 {
		cfg.FixedWorkers = workers
	}

	// Live introspection: a registry plus HTTP server observing every
	// speculative run the suite performs.
	var reg *obs.Registry
	if serve != "" {
		reg = obs.NewRegistry()
		srv := obs.NewServer(reg)
		cfg.Publish = specrt.NewPublisher(reg)
		srv.SetSpec(cfg.Publish.Spec)
		bound, err := srv.Start(serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "privateer-bench: introspection server listening on http://%s\n", bound)
		cfg.OpProf = interp.NewOpProfiler(interp.DefaultSampleEvery)
	}

	// Tracing: events stream into a ring collector; after the experiment the
	// retained window is exported.
	var collector *obs.Collector
	var tracer *obs.Tracer
	if traceOut != "" {
		collector = obs.NewCollector(1 << 16)
		tracer = obs.NewTracer(collector)
		cfg.Trace = tracer
		collector.PublishMetrics(reg)
	}
	finishTrace := func() error {
		if collector == nil {
			return nil
		}
		events := collector.Events()
		if dropped := collector.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "privateer-bench: trace ring overflowed; oldest %d of %d events dropped\n",
				dropped, collector.Total())
		}
		f, err := os.Create(traceOut)
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
		fmt.Fprintf(os.Stderr, "privateer-bench: wrote %d events to %s\n", len(events), traceOut)
		return nil
	}

	// Experiments that render a table, or their report as -json.
	type report interface{ Format() string }
	structured := map[string]func() (report, error){
		"micro":       func() (report, error) { return bench.RunMicroTraced(tracer) },
		"elision":     func() (report, error) { return bench.RunVariant(cfg, quick, "elision") },
		"staticsep":   func() (report, error) { return bench.RunVariant(cfg, quick, "staticsep") },
		"obsoverhead": func() (report, error) { return bench.RunObsOverhead() },
	}
	// The paper's tables and figures render text only; all but table1 run
	// over a prepared suite.
	onSuite := func(f func(*bench.Suite) (string, error)) func() (string, error) {
		return func() (string, error) {
			suite, err := bench.NewSuite(cfg)
			if err != nil {
				return "", err
			}
			return f(suite)
		}
	}
	text := map[string]func() (string, error){
		"table1":   func() (string, error) { return bench.Table1(), nil },
		"all":      onSuite((*bench.Suite).All),
		"table3":   onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Table3()) }),
		"fig6":     onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig6()) }),
		"fig7":     onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig7()) }),
		"fig8":     onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig8()) }),
		"fig9":     onSuite(func(s *bench.Suite) (string, error) { return formatted(s.Fig9()) }),
		"ablation": onSuite(func(s *bench.Suite) (string, error) { return ablations(s, cfg, quick) }),
	}

	var out string
	var err error
	runStructured, isStructured := structured[experiment]
	runText, isText := text[experiment]
	switch {
	case isStructured:
		var rep report
		if rep, err = runStructured(); err == nil {
			out = rep.Format()
			if jsonOut {
				var b []byte
				b, err = json.MarshalIndent(rep, "", "  ")
				out = string(b)
			}
		}
	case !isText:
		return fmt.Errorf("unknown experiment %q", experiment)
	case jsonOut:
		return fmt.Errorf("experiment %q has no -json output", experiment)
	default:
		out, err = runText()
	}
	if out != "" {
		fmt.Println(out)
	}
	// A requested trace is written even when the experiment failed: the
	// events up to the failure are what explains it.
	return errors.Join(err, finishTrace())
}

// formatted renders a text-only experiment's result.
func formatted[R interface{ Format() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

// ablations runs the three ablation studies and concatenates their tables.
func ablations(s *bench.Suite, cfg bench.Config, quick bool) (string, error) {
	cp, err := s.AblationCheckpointPeriod("dijkstra",
		[]int64{1, 2, 4, 8, 16, 32, 64}, 0.03)
	if err != nil {
		return "", err
	}
	el, err := bench.RunVariant(cfg, quick, "ablation")
	if err != nil {
		return "", err
	}
	vp, err := bench.AblationValuePrediction(cfg)
	if err != nil {
		return "", err
	}
	return cp.Format() + "\n" + el.Format() + "\n" + vp.Format(), nil
}
