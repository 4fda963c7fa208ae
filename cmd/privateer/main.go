// Command privateer runs one of the benchmark programs through the full
// Privateer pipeline — profile, classify, select, transform, DOALL — and
// executes it under the speculative runtime, reporting the heap assignment,
// runtime statistics and simulated speedup over the best sequential
// execution.
//
// Usage:
//
//	privateer -prog dijkstra -workers 8
//	privateer -prog blackscholes -workers 24 -input ref -misspec 0.01
//	privateer -prog enc-md5 -mode doall      # the non-speculative baseline
//	privateer -prog swaptions -mode seq      # plain sequential execution
//	privateer -mode serve -serve :6060       # multi-tenant region service
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/service"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// whyMisspec enables the post-run misspeculation-attribution report.
var whyMisspec bool

// reportWhyMisspec prints a run record's -why-misspec attribution report.
func reportWhyMisspec(rec specrt.Record) {
	if whyMisspec {
		fmt.Print(specrt.FormatMisspecSites(rec.Sites))
	}
}

// serveNeedsModeServe rejects -serve on a one-shot run: the flag is the
// region service's listen address, and a one-shot run prints its totals
// and exits with nothing left to scrape.
func serveNeedsModeServe(serve string) error {
	if serve == "" {
		return nil
	}
	return fmt.Errorf("-serve %s is the listen address of -mode serve; "+
		"a one-shot run prints its totals and exits", serve)
}

// speculationNeedsModePrivateer rejects a non-zero -misspec or -checkpoint
// on a mode that does not speculate: both tune the speculative runtime, and
// -mode seq and -mode doall would run without reading them.
func speculationNeedsModePrivateer(mode string, misspec float64, period int64) error {
	if mode == "privateer" || misspec == 0 && period == 0 {
		return nil
	}
	return fmt.Errorf("-misspec %g and -checkpoint %d tune -mode privateer; -mode %s does not speculate",
		misspec, period, mode)
}

func main() {
	var (
		progName = flag.String("prog", "dijkstra", "benchmark: "+names())
		irFile   = flag.String("irfile", "", "run a textual-IR module from a file instead of a named benchmark")
		runArgs  = flag.String("args", "", "comma-separated integer arguments for -irfile programs")
		input    = flag.String("input", "ref", "input class: train, ref, alt, huge")
		workers  = flag.Int("workers", 8, "worker process count")
		mode     = flag.String("mode", "privateer", "privateer, doall, seq, or serve")
		misspec  = flag.Float64("misspec", 0, "injected misspeculation rate per iteration")
		seed     = flag.Uint64("seed", 0xC0FFEE, "injection seed")
		period   = flag.Int64("checkpoint", 0, "checkpoint period in iterations (0 = auto)")
		optimize = flag.Bool("O", false, "run the mid-end optimizer before profiling")
		showOut  = flag.Bool("output", false, "print the program's output")
		quiet    = flag.Bool("quiet", false, "suppress the pipeline summary")
		serve    = flag.String("serve", "", "serve: listen address of the region service (default :6060)")
		whyMiss  = flag.Bool("why-misspec", false, "after the run, print misspeculations attributed to allocation sites")

		// Region-service tuning (only with -mode serve).
		queueDepth  = flag.Int("queue-depth", service.DefaultQueueDepth, "serve: bounded job-queue depth before backpressure")
		concurrency = flag.Int("concurrency", service.DefaultConcurrency, "serve: concurrent region invocations")
		tenantQuota = flag.Int("tenant-quota", 0, "serve: max inflight jobs per tenant (0 = unlimited)")
		poolSlots   = flag.Int("pool-slots", specrt.DefaultPoolSlots, "serve: warmed worker spaces retained per program")
		traceCap    = flag.Int("trace-capacity", 0, "serve: per-job trace ring capacity in events (0 = default, negative disables tracing)")
		flightCap   = flag.Int("flight-entries", 0, "serve: postmortems retained by the flight recorder (0 = default)")
	)
	flag.Parse()
	buildHook = *optimize
	whyMisspec = *whyMiss
	if *mode == "serve" {
		if err := runService(*serve, *workers, *queueDepth, *concurrency,
			*tenantQuota, *poolSlots, *traceCap, *flightCap, *misspec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "privateer:", err)
			os.Exit(1)
		}
		return
	}
	var err error
	if *irFile != "" {
		err = runIRFile(*irFile, *runArgs, *workers, *serve, *misspec, *seed, *period, *showOut, *quiet)
	} else {
		err = run(*progName, *input, *workers, *mode, *serve, *misspec, *seed, *period, *showOut, *quiet)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privateer:", err)
		os.Exit(1)
	}
}

// runService runs the process as a long-lived multi-tenant region service:
// the submit/poll API and the introspection endpoints share one listener,
// and SIGINT/SIGTERM triggers a graceful drain before exit.
func runService(addr string, workers, queueDepth, concurrency, tenantQuota,
	poolSlots, traceCap, flightCap int, misspec float64, seed uint64) error {
	if addr == "" {
		addr = ":6060"
	}
	reg := obs.NewRegistry()
	srv := obs.NewServer(reg)
	svc := service.New(service.Config{
		Workers:        workers,
		Concurrency:    concurrency,
		QueueDepth:     queueDepth,
		TenantInflight: tenantQuota,
		PoolSlots:      poolSlots,
		Metrics:        reg,
		TraceCapacity:  traceCap,
		FlightEntries:  flightCap,
		MisspecRate:    misspec,
		Seed:           seed,
	})
	svc.Mount(srv)
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "privateer: region service listening on http://%s\n", bound)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Fprintln(os.Stderr, "privateer: draining region service")
	svc.Drain()
	return srv.Close()
}

// runIRFile parses a textual-IR module, parallelizes it automatically and
// runs it speculatively, comparing against its own sequential execution.
func runIRFile(path, argList string, workers int, serve string, misspec float64,
	seed uint64, period int64, showOut, quiet bool) error {
	if err := serveNeedsModeServe(serve); err != nil {
		return err
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var args []uint64
	if argList != "" {
		for _, tok := range strings.Split(argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -args element %q: %w", tok, err)
			}
			args = append(args, v)
		}
	}
	// Sequential baseline (a fresh parse: the pipeline mutates modules).
	seqMod, err := ir.Parse(string(text))
	if err != nil {
		return err
	}
	seqIt := interp.New(seqMod, vm.NewAddressSpace())
	seqVal, err := seqIt.Run(args...)
	if err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	fmt.Printf("sequential: result %d, %d interpreted instructions\n", int64(seqVal), seqIt.Steps)

	mod, err := ir.Parse(string(text))
	if err != nil {
		return err
	}
	par, err := core.Parallelize(mod, core.Options{TrainArgs: args})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Print(par.Summary())
	}
	if len(par.Regions) == 0 {
		fmt.Println("nothing parallelized; sequential result stands")
		if showOut {
			fmt.Print(seqIt.Out.String())
		}
		return nil
	}
	rt, got, err := core.Run(par, specrt.Config{
		Workers: workers, MisspecRate: misspec, Seed: seed, CheckpointPeriod: period,
	}, args...)
	if err != nil {
		return err
	}
	match := "MATCHES"
	if got != seqVal {
		match = "DIFFERS FROM"
	}
	rec := rt.Record
	fmt.Printf("parallel: result %d (%s sequential), %d misspeculations, sim speedup %.2fx\n",
		int64(got), match, rec.Stats.Misspecs, float64(seqIt.Steps)/float64(rec.Sim.Time()))
	if showOut {
		fmt.Print(rt.Output())
	}
	reportWhyMisspec(rec)
	return nil
}

// buildHook enables ir.OptimizeModule on freshly built modules.
var buildHook bool

// build constructs (and optionally optimizes) a benchmark module.
func build(p *progs.Program, in progs.Input) *ir.Module {
	m := p.Build(in)
	if buildHook {
		ir.OptimizeModule(m)
	}
	return m
}

func names() string {
	var ns []string
	for _, p := range progs.All() {
		ns = append(ns, p.Name)
	}
	return strings.Join(ns, ", ")
}

func run(progName, input string, workers int, mode, serve string, misspec float64,
	seed uint64, period int64, showOut, quiet bool) error {
	p := progs.ByName(progName)
	if p == nil {
		return fmt.Errorf("unknown program %q (have: %s)", progName, names())
	}
	in, ok := p.Input(input)
	if !ok {
		return fmt.Errorf("unknown input class %q", input)
	}
	// Rejected here, not in the switch below: that runs after the
	// sequential baseline, which takes seconds on ref inputs.
	if mode != "seq" && mode != "doall" && mode != "privateer" {
		return fmt.Errorf("unknown mode %q", mode)
	}
	if err := serveNeedsModeServe(serve); err != nil {
		return err
	}
	if err := speculationNeedsModePrivateer(mode, misspec, period); err != nil {
		return err
	}
	fmt.Printf("program %s, input %s\n", p.Name, in)

	// Best sequential execution for the speedup baseline.
	seqIt := interp.New(build(p, in), vm.NewAddressSpace())
	if _, err := seqIt.Run(); err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	fmt.Printf("sequential: %d interpreted instructions\n", seqIt.Steps)

	switch mode {
	case "seq":
		if showOut {
			fmt.Print(seqIt.Out.String())
		}
		return nil
	case "doall":
		static, err := core.ParallelizeStatic(build(p, in), core.Options{})
		if err != nil {
			return err
		}
		if !quiet {
			for _, r := range static.Reports {
				status := "selected"
				if !r.Selected {
					status = "rejected: " + r.Reason
				}
				fmt.Printf("  loop %-26s %s\n", r.Loop, status)
			}
		}
		rt, _, err := core.Run(static, specrt.Config{Workers: workers})
		if err != nil {
			return err
		}
		simTime := rt.Sim.Time()
		fmt.Printf("DOALL-only: %d loops, %d invocations, simulated time %d, sim speedup %.2fx\n",
			len(static.Regions), rt.Stats.Invocations, simTime, float64(seqIt.Steps)/float64(simTime))
		if showOut {
			fmt.Print(rt.Output())
		}
		return nil
	case "privateer":
		par, err := core.Parallelize(build(p, in), core.Options{})
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Print(par.Summary())
		}
		rt, _, err := core.Run(par, specrt.Config{
			Workers: workers, MisspecRate: misspec, Seed: seed, CheckpointPeriod: period,
		})
		if err != nil {
			return err
		}
		rec := rt.Record
		st := rec.Stats
		fmt.Printf("privateer: %d workers, %d invocations, %d checkpoints, "+
			"%d misspeculations, %d recoveries\n",
			workers, st.Invocations, st.Checkpoints, st.Misspecs, st.Recoveries)
		fmt.Printf("privacy: %d reads (%d B), %d writes (%d B); %d separation checks; %d predictions\n",
			st.PrivReadChecks, st.PrivReadBytes, st.PrivWriteChecks, st.PrivWriteBytes,
			st.SeparationChecks, st.Predictions)
		fmt.Printf("simulated time %d, sim speedup %.2fx\n",
			rec.Sim.Time(), float64(seqIt.Steps)/float64(rec.Sim.Time()))
		if showOut {
			fmt.Print(rt.Output())
		}
		reportWhyMisspec(rec)
		return nil
	}
	panic("unreachable: mode validated above")
}
