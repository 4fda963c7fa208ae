// Command privateer runs one of the benchmark programs, or a textual-IR
// module, through the full Privateer pipeline — profile, classify, select,
// transform, DOALL — and executes it under the speculative runtime,
// reporting the heap assignment, runtime statistics and simulated speedup
// over the best sequential execution.
//
// Usage:
//
//	privateer -prog dijkstra -workers 8
//	privateer -prog blackscholes -workers 24 -input ref -misspec 0.01
//	privateer -prog enc-md5 -mode doall      # the non-speculative baseline
//	privateer -prog swaptions -mode seq      # plain sequential execution
//	privateer -irfile x.pir -args 512        # a module privateer-dump -o wrote
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "privateer:", err)
		os.Exit(1)
	}
}

// run parses the command line args and executes it: the region service
// under -mode serve, otherwise one run of a benchmark program or an IR
// module in the chosen mode.
func run(args []string) error {
	fs := flag.NewFlagSet("privateer", flag.ExitOnError)
	var (
		progName = fs.String("prog", "dijkstra", "benchmark: "+names())
		irFile   = fs.String("irfile", "", "run a textual-IR module from a file instead of a named benchmark")
		runArgs  = fs.String("args", "", "comma-separated integer arguments for -irfile programs")
		input    = fs.String("input", "ref", "input class: train, ref, alt, huge")
		workers  = fs.Int("workers", 8, "worker process count")
		mode     = fs.String("mode", "privateer", "privateer, doall, seq, or serve")
		misspec  = fs.Float64("misspec", 0, "injected misspeculation rate per iteration")
		seed     = fs.Uint64("seed", 0xC0FFEE, "injection seed")
		period   = fs.Int64("checkpoint", 0, "checkpoint period in iterations (0 = auto)")
		optimize = fs.Bool("O", false, "run the mid-end optimizer before profiling")
		showOut  = fs.Bool("output", false, "print the program's output")
		quiet    = fs.Bool("quiet", false, "suppress the pipeline summary")
		serve    = fs.String("serve", "", "serve: listen address of the region service (default :6060)")
		whyMiss  = fs.Bool("why-misspec", false, "after the run, print misspeculations attributed to allocation sites")

		// Region-service tuning (only with -mode serve).
		queueDepth  = fs.Int("queue-depth", service.DefaultQueueDepth, "serve: bounded job-queue depth before backpressure")
		concurrency = fs.Int("concurrency", service.DefaultConcurrency, "serve: concurrent region invocations")
		tenantQuota = fs.Int("tenant-quota", 0, "serve: max inflight jobs per tenant (0 = unlimited)")
		poolSlots   = fs.Int("pool-slots", specrt.DefaultPoolSlots, "serve: warmed worker spaces retained per program")
		traceCap    = fs.Int("trace-capacity", 0, "serve: per-job trace ring capacity in events (0 = default, negative disables tracing)")
		flightCap   = fs.Int("flight-entries", 0, "serve: postmortems retained by the flight recorder (0 = default)")
		retainJobs  = fs.Int("retain-jobs", service.DefaultRetainJobs, "serve: finished jobs kept for /poll and traces; older ones answer 410 Gone")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	// Rejected before anything runs: a one-shot run starts with the
	// sequential baseline, which takes seconds on ref inputs.
	if *mode != "seq" && *mode != "doall" && *mode != "privateer" && *mode != "serve" {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	set := map[string]string{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	if err := unreadFlags(*mode, set); err != nil {
		return err
	}
	if *mode == "serve" {
		return runService(*serve, *workers, *queueDepth, *concurrency,
			*tenantQuota, *poolSlots, *traceCap, *flightCap, *retainJobs, *misspec, *seed)
	}
	t, err := newTarget(*progName, *input, *irFile, *runArgs, *optimize)
	if err != nil {
		return err
	}
	return t.oneShot(*mode, specrt.Config{
		Workers: *workers, MisspecRate: *misspec, Seed: *seed, CheckpointPeriod: *period,
	}, *showOut, *quiet, *whyMiss)
}

// unreadFlags rejects a flag given on the command line that a run in mode
// would not read. -mode serve runs the programs its jobs name and prints no
// report, so of the one-shot flags it reads only -workers, -misspec and
// -seed. A one-shot run drops -serve and the service tuning flags; an
// -irfile module drops -prog and -input, a named program -args; and -mode
// seq and -mode doall drop -misspec, -checkpoint, -seed and -why-misspec,
// which tune or report speculation. set maps each given flag to its value.
func unreadFlags(mode string, set map[string]string) error {
	if mode == "serve" {
		if g := given(set, "prog", "input", "irfile", "args", "checkpoint", "O", "output", "quiet", "why-misspec"); g != "" {
			return fmt.Errorf("%s: -mode serve runs submitted jobs and prints no report", g)
		}
		return nil
	}
	if v, ok := set["serve"]; ok {
		return fmt.Errorf("-serve %s is the listen address of -mode serve; "+
			"a one-shot run prints its totals and exits", v)
	}
	if g := given(set, "queue-depth", "concurrency", "tenant-quota", "pool-slots", "trace-capacity", "flight-entries", "retain-jobs"); g != "" {
		return fmt.Errorf("%s: tunes the region service of -mode serve; -mode %s is a one-shot run", g, mode)
	}
	if _, ok := set["irfile"]; ok {
		if g := given(set, "prog", "input"); g != "" {
			return fmt.Errorf("%s: -irfile runs its module on -args, not a named program's input", g)
		}
	} else if g := given(set, "args"); g != "" {
		return fmt.Errorf("%s: only an -irfile module takes -args", g)
	}
	if mode == "privateer" {
		return nil
	}
	if g := given(set, "misspec", "checkpoint", "seed", "why-misspec"); g != "" {
		return fmt.Errorf("%s: only -mode privateer speculates; -mode %s does not", g, mode)
	}
	return nil
}

// given lists, as "-name value", the flags among names that set holds.
func given(set map[string]string, names ...string) string {
	var out []string
	for _, name := range names {
		if v, ok := set[name]; ok {
			out = append(out, "-"+name+" "+v)
		}
	}
	return strings.Join(out, ", ")
}

// runService runs the process as a long-lived multi-tenant region service:
// the submit/poll API and the introspection endpoints share one listener,
// and SIGINT/SIGTERM triggers a graceful drain before exit.
func runService(addr string, workers, queueDepth, concurrency, tenantQuota,
	poolSlots, traceCap, flightCap, retainJobs int, misspec float64, seed uint64) error {
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
		RetainJobs:     retainJobs,
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

// target is what a one-shot run executes: a benchmark program at one of
// its inputs, or a textual-IR module run on -args.
type target struct {
	// title is the report's first line.
	title string
	// build returns a fresh module: every leg compiles or runs its own,
	// since the pipeline rewrites the module it compiles.
	build    func() *ir.Module
	optimize bool
	// args are the entry arguments, of the profiling run too.
	args []uint64
	// results reports the entry's return value and whether each leg's
	// matches the sequential one: an IR module's result is what it returns,
	// a benchmark program's is its output (-output).
	results bool
}

// newTarget resolves what a one-shot run executes: the -irfile module when
// one is named, otherwise the -prog program at -input.
func newTarget(progName, input, irFile, argList string, optimize bool) (*target, error) {
	if irFile != "" {
		text, err := os.ReadFile(irFile)
		if err != nil {
			return nil, err
		}
		mod, err := ir.Parse(string(text))
		if err != nil {
			return nil, err
		}
		var args []uint64
		if argList != "" {
			for _, tok := range strings.Split(argList, ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad -args element %q: %w", tok, err)
				}
				args = append(args, v)
			}
		}
		return &target{title: "module " + mod.Name, optimize: optimize, args: args, results: true,
			build: func() *ir.Module {
				m, _ := ir.Parse(string(text)) // the text parsed above
				return m
			}}, nil
	}
	p := progs.ByName(progName)
	if p == nil {
		return nil, fmt.Errorf("unknown program %q (have: %s)", progName, names())
	}
	in, ok := p.Input(input)
	if !ok {
		return nil, fmt.Errorf("unknown input class %q", input)
	}
	return &target{title: fmt.Sprintf("program %s, input %s", p.Name, in), optimize: optimize,
		build: func() *ir.Module { return p.Build(in) }}, nil
}

// module returns a fresh module, optimized under -O.
func (t *target) module() *ir.Module {
	m := t.build()
	if t.optimize {
		ir.OptimizeModule(m)
	}
	return m
}

// printResult reports, when t reports results, what a parallel leg
// returned beside the sequential result want.
func (t *target) printResult(got, want uint64) {
	if !t.results {
		return
	}
	match := "MATCHES"
	if got != want {
		match = "DIFFERS FROM"
	}
	fmt.Printf("result %d (%s sequential)\n", int64(got), match)
}

// oneShot runs t sequentially for the baseline, then in mode: seq stops
// there, doall runs the DOALL-only build and privateer the speculative one
// on cfg.
func (t *target) oneShot(mode string, cfg specrt.Config, showOut, quiet, whyMisspec bool) error {
	fmt.Println(t.title)
	seqIt := interp.New(t.module(), vm.NewAddressSpace())
	seqVal, err := seqIt.Run(t.args...)
	if err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	if t.results {
		fmt.Printf("sequential: result %d, %d interpreted instructions\n", int64(seqVal), seqIt.Steps)
	} else {
		fmt.Printf("sequential: %d interpreted instructions\n", seqIt.Steps)
	}
	var rt *specrt.RT
	switch mode {
	case "seq":
		if showOut {
			fmt.Print(seqIt.Out.String())
		}
		return nil
	case "doall":
		static, err := core.ParallelizeStatic(t.module(), core.Options{TrainArgs: t.args})
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
		var got uint64
		rt, got, err = core.Run(static, specrt.Config{Workers: cfg.Workers}, t.args...)
		if err != nil {
			return err
		}
		simTime := rt.Sim.Time()
		fmt.Printf("DOALL-only: %d loops, %d invocations, simulated time %d, sim speedup %.2fx\n",
			len(static.Regions), rt.Stats.Invocations, simTime, float64(seqIt.Steps)/float64(simTime))
		t.printResult(got, seqVal)
	case "privateer":
		par, err := core.Parallelize(t.module(), core.Options{TrainArgs: t.args})
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Print(par.Summary())
		}
		var got uint64
		rt, got, err = core.Run(par, cfg, t.args...)
		if err != nil {
			return err
		}
		rec := rt.Record
		st := rec.Stats
		fmt.Printf("privateer: %d workers, %d invocations, %d checkpoints, "+
			"%d misspeculations, %d recoveries\n",
			cfg.Workers, st.Invocations, st.Checkpoints, st.Misspecs, st.Recoveries)
		fmt.Printf("privacy: %d reads (%d B), %d writes (%d B); %d separation checks; %d predictions\n",
			st.PrivReadChecks, st.PrivReadBytes, st.PrivWriteChecks, st.PrivWriteBytes,
			st.SeparationChecks, st.Predictions)
		fmt.Printf("simulated time %d, sim speedup %.2fx\n",
			rec.Sim.Time(), float64(seqIt.Steps)/float64(rec.Sim.Time()))
		t.printResult(got, seqVal)
	}
	if showOut {
		fmt.Print(rt.Output())
	}
	if whyMisspec {
		fmt.Print(specrt.FormatMisspecSites(rt.Sites))
	}
	return nil
}

func names() string {
	var ns []string
	for _, p := range progs.All() {
		ns = append(ns, p.Name)
	}
	return strings.Join(ns, ", ")
}
