// Package bench regenerates every table and figure of the paper's
// evaluation (section 6): Table 1 (technique comparison), Table 3 (dynamic
// program details), Figure 6 (whole-program speedups), Figure 7 (Privateer
// vs DOALL-only), Figure 8 (overhead breakdown) and Figure 9 (sensitivity
// to misspeculation) — plus the stage-off vs stage-on variant table
// (variants.go) and the ablations.
//
// The package holds no clock. Every speedup is a ratio of deterministic
// simulated times (see specrt/sim.go) and is labelled "sim": the host
// machine's core count and load do not affect results, only the modeled
// 24-worker machine does, so the rendered report is a golden
// (testdata/quick_report.golden). Shapes — who wins, scaling trends, where
// DOALL-only fails — are the quantities reproduced; absolute factors
// depend on the cost model, not on the authors' testbed. Wall-clock speed
// is measured only by the repository benchmark (benchmark/).
package bench

import (
	"fmt"
	"math"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// Config selects inputs and sweep points.
type Config struct {
	// Input is the input class for measurements ("train", "ref", "alt",
	// "huge"); any other name is an error.
	Input string
	// WorkerCounts is Figure 6's sweep.
	WorkerCounts []int
	// Fig8Workers is Figure 8's sweep.
	Fig8Workers []int
	// MisspecRates is Figure 9's sweep (fraction of iterations).
	MisspecRates []float64
	// FixedWorkers is the machine size for Figures 7 and 9 (the paper's
	// 24-core machine).
	FixedWorkers int
	// Programs restricts the benchmark set (nil = all five).
	Programs []string
	// Trace receives speculation-lifecycle events from every speculative
	// run the suite performs (nil disables tracing).
	Trace *obs.Tracer
}

// DefaultConfig mirrors the paper's evaluation points.
func DefaultConfig() Config {
	return Config{
		Input:        "ref",
		WorkerCounts: []int{1, 4, 8, 12, 16, 20, 24},
		Fig8Workers:  []int{4, 8, 12, 16, 20, 24},
		// The paper sweeps 0.01%-1% on loops of >= 1000 iterations
		// (expected 0.1-10 misspeculations). These loops run 48-192
		// iterations, so the rates are rescaled to land in the same
		// expected-misspeculation regime.
		MisspecRates: []float64{0, 0.01, 0.03, 0.10},
		FixedWorkers: 24,
	}
}

// QuickConfig is a scaled-down configuration for tests.
func QuickConfig() Config {
	return Config{
		Input:        "train",
		WorkerCounts: []int{1, 4, 8},
		Fig8Workers:  []int{4, 8},
		MisspecRates: []float64{0, 0.10},
		FixedWorkers: 8,
	}
}

// prepared caches the compiled artifacts for one benchmark so every figure
// reuses one profile+transform.
type prepared struct {
	prog     *progs.Program
	input    progs.Input
	seqSteps int64
	par      *core.Parallelized
	static   *core.Parallelized
}

// Suite prepares all benchmarks once and runs the experiments.
type Suite struct {
	// Cfg is the configuration in force.
	Cfg      Config
	programs []*prepared
}

// NewSuite compiles every benchmark (sequential baseline, Privateer
// pipeline, DOALL-only pipeline) for the configured input.
func NewSuite(cfg Config) (*Suite, error) {
	selected, err := selectPrograms(cfg.Programs)
	if err != nil {
		return nil, err
	}
	s := &Suite{Cfg: cfg}
	for _, p := range selected {
		pr, err := prepare(p, cfg.Input)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, pr)
	}
	return s, nil
}

// selectPrograms resolves Config.Programs (nil = all five) in benchmark
// order, rejecting unknown names before anything is compiled: a typo must
// fail the experiment, not print an empty table.
func selectPrograms(names []string) ([]*progs.Program, error) {
	if len(names) == 0 {
		return progs.All(), nil
	}
	want := map[string]bool{}
	for _, n := range names {
		if progs.ByName(n) == nil {
			return nil, fmt.Errorf("unknown program %q", n)
		}
		want[n] = true
	}
	var out []*progs.Program
	for _, p := range progs.All() {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// inputFor resolves an input class name, rejecting unknown ones: a typo
// must fail the experiment, not run ref inputs under the typo's label.
func inputFor(p *progs.Program, name string) (progs.Input, error) {
	in, ok := p.Input(name)
	if !ok {
		return in, fmt.Errorf("unknown input class %q", name)
	}
	return in, nil
}

// goldenWorkers is the worker count testdata/variants_golden.json was
// recorded at: the elision and staticsep variants run at it, and simulated
// time depends on the worker count, so changing it moves the golden.
const goldenWorkers = 8

// ratio is before/after, 0 when after is unmeasured.
func ratio(before, after int64) float64 {
	if after <= 0 {
		return 0
	}
	return float64(before) / float64(after)
}

// runSequential interprets the unmodified program: the interpreter (its
// Steps are the sequential simulated time, its Out the reference output)
// and the return value.
func runSequential(p *progs.Program, in progs.Input) (*interp.Interp, uint64, error) {
	seqIt := interp.New(p.Build(in), vm.NewAddressSpace())
	ret, err := seqIt.Run()
	if err != nil {
		return nil, 0, fmt.Errorf("%s sequential: %w", p.Name, err)
	}
	return seqIt, ret, nil
}

func prepare(p *progs.Program, inputName string) (*prepared, error) {
	in, err := inputFor(p, inputName)
	if err != nil {
		return nil, err
	}
	// Best sequential execution: the unmodified program.
	seqIt, _, err := runSequential(p, in)
	if err != nil {
		return nil, err
	}
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s parallelize: %w", p.Name, err)
	}
	static, err := core.ParallelizeStatic(p.Build(in), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s static parallelize: %w", p.Name, err)
	}
	return &prepared{prog: p, input: in, seqSteps: seqIt.Steps, par: par, static: static}, nil
}

// runPrivateer executes pr's speculative build under cfg plus the suite's
// tracer and returns the runtime's run record.
func (s *Suite) runPrivateer(pr *prepared, cfg specrt.Config) (specrt.Record, error) {
	cfg.Trace = s.Cfg.Trace
	rt, _, err := core.Run(pr.par, cfg)
	if err != nil {
		return specrt.Record{}, err
	}
	return rt.Record, nil
}

// simSpeedup is seq simulated time over parallel simulated time.
func (pr *prepared) simSpeedup(rec specrt.Record) float64 {
	t := rec.Sim.Time()
	if t <= 0 {
		return 0
	}
	return float64(pr.seqSteps) / float64(t)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
