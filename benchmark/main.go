// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics with bounds, a per-layer ledger and a traced pass.
// See README.md beside this file. It is a module of its own that replaces
// its one requirement, privateer, with the parent directory; run it from
// the repository root with -C, and relative paths are relative to this
// directory:
//
//	go run -C benchmark . -workload region_ref -seed 1
//	go run -C benchmark . -all -out out/a.json
//	go run -C benchmark . -compare out/a.json out/b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
)

// workloadNames is the order -all runs them in.
var workloadNames = []string{"compile_cold", "region_ref", "region_recover", "service_short"}

// smokeOps is the -smoke scale: passes per serial workload, jobs for
// service_short.
var smokeOps = map[string]int{"compile_cold": 2, "region_ref": 1, "region_recover": 1, "service_short": 200}

// atSmokeScale shrinks a run to a functional check.
func (o options) atSmokeScale() options {
	o.smoke, o.ops, o.setups = true, smokeOps[o.workload], 1
	return o
}

// gcPercent is the GOGC value every run pins. The workloads keep a few
// megabytes live and allocate hundreds per second, so at the default 100
// the collector runs some twenty times a second, and on a 2-vCPU host its
// background workers take the sibling hyperthread: a third of every
// timing and most of its run-to-run spread. alloc_kb_per_op gates
// allocation itself.
const gcPercent = 400

// run executes one workload in this process.
func run(opt options) (*Result, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	h := newHarness(opt)
	h.typical = slices.Min[[]float64] // rowwise passes no empty row
	var err error
	switch opt.workload {
	case "compile_cold":
		err = runSerial(h, &compileCold{})
	case "region_ref":
		h.typical = median
		err = runSerial(h, &region{})
	case "region_recover":
		h.typical, h.inexact = median, true
		err = runSerial(h, &region{recover: true})
	case "service_short":
		err = runService(h)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	h.finish()
	if opt.trace {
		path := filepath.Join(opt.outDir, "trace-"+opt.workload+".json")
		if err := writeChromeTrace(path, h.recs); err != nil {
			return nil, err
		}
	}
	return h.res, nil
}

func main() {
	var (
		opt     options
		all     = flag.Bool("all", false, "run the four workloads in sequence, each in a fresh process, traced")
		smoke   = flag.Bool("smoke", false, "tiny fixed op counts and one set-up: a functional check, not a measurement")
		runs    = flag.Int("runs", 1, "with -all, how many times to run each workload")
		out     = flag.String("out", "", "write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: compile_cold, region_ref, region_recover or service_short")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for row order, job order, tenant mix and injected misspeculation")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of the timed section")
	flag.IntVar(&opt.ops, "ops", 0, "run a fixed number of passes (jobs on service_short) instead of -seconds")
	// An int, not a bool: the driver passes the value as the next argument.
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer ledger")
	flag.StringVar(&opt.outDir, "outdir", "out", "directory for trace-<workload>.json")
	flag.Parse()
	opt.trace = *trace != 0
	opt.setups = setupRepeats

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		if err := runAll(opt, *smoke, *runs, *out); err != nil {
			fatal(err)
		}
	default:
		if *smoke {
			opt = opt.atSmokeScale()
		}
		res, err := run(opt)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeResultSet(*out, []*Result{res}); err != nil {
				fatal(err)
			}
		}
		res.printTable(os.Stdout)
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		fmt.Println(res.driverLine())
		os.Exit(res.exitCode())
	}
}

// exitCode is non-zero when any op failed its correctness check.
func (r *Result) exitCode() int {
	if r.Failed > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload as a subprocess of this binary, so that
// each starts from a fresh heap, and gathers the results into one set.
func runAll(opt options, smoke bool, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(opt.outDir, "results.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	part := out + ".part"
	defer os.Remove(part)
	var results []*Result
	for i := 0; i < runs; i++ {
		for _, name := range workloadNames {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-ops", strconv.Itoa(opt.ops),
				"-trace", "1", "-outdir", opt.outDir, "-out", part}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			rs, err := readResultSet(part)
			if err != nil {
				return err
			}
			results = append(results, rs.Runs...)
		}
	}
	return writeResultSet(out, results)
}
