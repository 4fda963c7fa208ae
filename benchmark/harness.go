package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const schema = "privateer-benchmark/1"

// A run sets up from scratch at least setupRepeats times, and again
// until setupSeconds have gone into it or setupMax is reached; setup_s
// is the median, so that one slow set-up does not read as a regression.
// The region workloads' 8 s set-ups stop at two, which is what the
// driver's time budget has room for; the 0.2 s ones of service_short
// get fifteen.
const (
	setupRepeats = 2
	setupSeconds = 3.0
	setupMax     = 15
)

// tracedShare is the traced pass's budget as a share of the timed one.
const tracedShare = 0.2

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed-section budget
	ops      int     // if > 0, a fixed op budget instead: passes, or jobs for service_short
	trace    bool
	setups   int // least number of set-up repetitions
	// smoke shrinks the region workloads' input to train, so that a
	// functional check of the harness takes seconds; with it a run's
	// numbers describe nothing.
	smoke  bool
	outDir string // where trace-<workload>.json goes
	// corruptRef flips one expected output after set-up, so that a test
	// can see the correctness gate fail.
	corruptRef bool
}

// budget bounds one section either by time or by a fixed op count.
type budget struct {
	seconds float64
	ops     int
}

func (o options) timedBudget() budget { return budget{o.seconds, o.ops} }

func (o options) tracedBudget() budget {
	b := budget{seconds: o.seconds * tracedShare}
	if o.ops > 0 {
		b.ops = (o.ops + 4) / 5
	}
	return b
}

// moreSetup reports whether a run that has spent the times in done on
// set-ups should set up once more.
func (o options) moreSetup(done []float64) bool {
	if len(done) < o.setups {
		return true
	}
	total := 0.0
	for _, s := range done {
		total += s
	}
	return !o.smoke && total < setupSeconds && len(done) < setupMax
}

// done reports whether a section that has completed n ops (at least one)
// in elapsed time is over.
func (b budget) done(n int, elapsed time.Duration) bool {
	if n == 0 {
		return false
	}
	if b.ops > 0 {
		return n >= b.ops
	}
	return elapsed.Seconds() >= b.seconds
}

// Metric is one reported number.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	N      int     `json:"n"`
	Bound  float64 `json:"bound"`
	Exact  bool    `json:"exact,omitempty"`
}

// Result is one workload run: the envelope that identifies host, build
// and inputs, and every metric by name.
type Result struct {
	Schema     string            `json:"schema"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Seed       int64             `json:"seed"`
	Workload   string            `json:"workload"`
	Seconds    float64           `json:"seconds"`
	Ops        int               `json:"ops"`
	Traced     bool              `json:"traced"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"` // why the first few failed ops failed
	Metrics    map[string]Metric `json:"metrics"`
}

// ResultSet is what -out writes and -compare reads: one or more runs.
type ResultSet struct {
	Schema string    `json:"schema"`
	Runs   []*Result `json:"runs"`
}

// workers is the speculative fleet size of every run the harness makes
// itself: min(NumCPU, 4).
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// harness carries one run's state: options, observations and results.
type harness struct {
	opt options
	rng *rand.Rand
	res *Result

	// typical reduces one row's op times to the time op_ms and ops_per_s
	// report for it. The sandbox's speed moves by a
	// quarter for minutes at a time, mostly through memory contention, and
	// a row's median moves with it. Where a row has dozens of observations
	// of work that takes one path (a compile, a short job), the fastest one
	// is the least disturbed and repeats to a few percent. A ref-input
	// speculative run has ten observations and a time that depends on how
	// the host schedules the fleet, so its fastest is a lucky schedule and
	// its median is the steadier reading. The issue's own metrics
	// (compile_ms, run_ms, seq_ms, job_ms) are medians on every workload.
	typical func([]float64) float64

	// inexact drops the exact flag from every layer metric of this run:
	// under injected misspeculation the counts depend on scheduling.
	inexact bool

	setupS []float64 // one set-up time per repetition, seconds
	timed  *samples  // timed pass, tracing off
	traced *samples  // traced pass
	setup  *samples  // observations made during set-up

	attempted, failed int
	recs              []*recorder
}

func newHarness(opt options) *harness {
	return &harness{
		opt: opt,
		rng: rand.New(rand.NewSource(opt.seed)),
		res: &Result{
			Schema: schema, Commit: commit(), Go: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers: workers(), Seed: opt.seed, Workload: opt.workload,
			Seconds: opt.seconds, Ops: opt.ops, Traced: opt.trace,
			Metrics: map[string]Metric{},
		},
	}
}

// commit names the checkout: git's HEAD when there is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// emit records a metric under its catalogue entry.
func (h *harness) emit(name string, value float64, n int) {
	s, ok := specOf(name)
	if !ok {
		panic("benchmark: metric not in catalogue: " + name)
	}
	if _, dup := h.res.Metrics[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	h.res.Metrics[name] = Metric{Value: value, Unit: s.unit, Better: s.better,
		N: n, Bound: s.bound, Exact: s.exact && !(h.inexact && s.class == layer)}
}

// value returns an already emitted metric's value.
func (h *harness) value(name string) float64 { return h.res.Metrics[name].Value }

// opTime is op_ms in nanoseconds: the geometric mean over rows of each
// row's typical op time, and the observation count.
func (h *harness) opTime(rows ...int) (float64, int) {
	vs, n := h.timed.rowwise("op", h.typical, rows...)
	return geomean(vs), n
}

// typicalRate is ops_per_s: how many correct ops per second `lanes`
// clients complete when every row takes its typical time (name is "op",
// or the tenant's whole cycle), rows being equally frequent. Unlike ops
// over elapsed time it is made of per-row readings, so a burst of host
// noise that stretches a few ops does not move it.
func (h *harness) typicalRate(name string, lanes, ops, failed int) float64 {
	vs, _ := h.timed.rowwise(name, h.typical)
	return float64(lanes) * float64(len(vs)) / (sumOf(vs) / 1e9) * float64(ops-failed) / float64(ops)
}

// fail counts one failed op and keeps the first few reasons.
func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.res.Failures) < 8 {
		h.res.Failures = append(h.res.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills in the metrics every workload shares and zero-fills the
// catalogue entries this workload has no reading for, so that every run
// names every metric exactly once.
func (h *harness) finish() {
	h.emit("setup_s", median(h.setupS), len(h.setupS))
	h.res.Attempted, h.res.Failed = h.attempted, h.failed
	share := 0.0
	if h.attempted > 0 {
		share = float64(h.failed) / float64(h.attempted)
	}
	h.emit("failed_share", share, h.attempted)
	if h.opt.trace {
		h.emit("harness.peak_rss_mb", peakRSSMB(), 1)
		worst := 0.0
		for _, r := range h.recs {
			if s := rootSelfShare(r.spans); s > worst {
				worst = s
			}
		}
		h.emit("harness.op_self_pct", 100*worst, len(h.recs))
	}
	for _, s := range catalogue {
		if _, ok := h.res.Metrics[s.name]; !ok {
			h.res.Metrics[s.name] = Metric{Unit: s.unit, Better: s.better, Bound: s.bound}
		}
	}
}

// traceOverhead compares the traced pass's op times with the timed
// pass's on the same rows.
func (h *harness) traceOverhead() {
	var ratios []float64
	tm, _ := h.timed.medians("op")
	trm, n := h.traced.medians("op")
	if len(tm) != len(trm) {
		return
	}
	for i := range tm {
		ratios = append(ratios, trm[i]/tm[i])
	}
	h.emit("harness.trace_overhead_pct", 100*(geomean(ratios)-1), n)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// printTable prints every metric that has a reading, by name, with unit,
// direction, sample count and bound.
func (r *Result) printTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  commit %s  %s  cpus %d  gomaxprocs %d  workers %d\n",
		r.Workload, r.Seed, r.Commit, r.Go, r.NumCPU, r.GOMAXPROCS, r.Workers)
	fmt.Fprintf(w, "%-30s %16s %-6s %-7s %7s %6s\n", "metric", "value", "unit", "better", "n", "bound")
	for _, s := range catalogue {
		m := r.Metrics[s.name]
		if m.N == 0 {
			continue
		}
		bound := "-"
		if s.class != layer {
			bound = strconv.FormatFloat(m.Bound, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%-30s %16.4f %-6s %-7s %7d %6s\n", s.name, m.Value, m.Unit, m.Better, m.N, bound)
	}
}

// driverLine is the contract's last line of output: the gated metrics of
// an untraced run, every other metric of a traced one.
func (r *Result) driverLine() string {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]dm{}
	for _, s := range catalogue {
		if (s.class == gated) != r.Traced {
			ms[s.name] = dm{r.Metrics[s.name].Value, s.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func writeResultSet(path string, runs []*Result) error {
	data, err := json.MarshalIndent(ResultSet{Schema: schema, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rs.Schema, schema)
	}
	return &rs, nil
}
