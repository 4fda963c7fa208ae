package main

import (
	"fmt"
	"time"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/progs"
	"privateer/internal/randprog"
	"privateer/internal/specrt"
)

// randomPrograms is the size of the random-program pool of compile_cold,
// and randomPoolSeed its first generator seed. The pool is fixed and the
// run's seed only orders the rows: generated programs differ threefold
// in compile time, so a pool drawn from the seed would move compile_ms
// by more than its bound between two seeds.
const (
	randomPrograms = 16
	randomPoolSeed = 1
)

// compileRow is one program compile_cold compiles again and again.
type compileRow struct {
	paper bool
	build func() *ir.Module
	// buildSpan names the layer the build belongs to.
	buildSpan string
	opts      core.Options
	runArgs   []uint64
	ref       reference
}

// compileCold: one op = build a fresh module and run it through
// core.Parallelize. The compile layers do all the work and the
// speculative runtime none (it only runs the output once per op,
// untimed, for the correctness gate).
type compileCold struct {
	r []compileRow
}

func (c *compileCold) rows() []string {
	names := make([]string, 0, 5+randomPrograms)
	for _, p := range progs.All() {
		names = append(names, p.Name+"/alt")
	}
	for i := 0; i < randomPrograms; i++ {
		names = append(names, fmt.Sprintf("rand%d", randomPoolSeed+i))
	}
	return names
}

func (c *compileCold) setup(h *harness) error {
	c.r = c.r[:0]
	for _, p := range progs.All() {
		p := p
		ret, out := p.Reference(p.Alt)
		c.r = append(c.r, compileRow{
			paper: true, buildSpan: "progs.build",
			build: func() *ir.Module { return p.Build(p.Alt) },
			ref:   reference{ret: ret, out: out, float: p.FloatResult},
		})
	}
	for i := 0; i < randomPrograms; i++ {
		cfg := randprog.DefaultConfig(int64(randomPoolSeed + i))
		args := []uint64{uint64(cfg.Iterations)}
		// The weaker reference: the same interpreter, on the module
		// before the compiler has touched it.
		ret, out, err := core.RunSequential(randprog.Generate(cfg), args...)
		if err != nil {
			return fmt.Errorf("rand%d sequential reference: %w", cfg.Seed, err)
		}
		c.r = append(c.r, compileRow{
			buildSpan: "randprog.generate",
			build:     func() *ir.Module { return randprog.Generate(cfg) },
			opts:      core.Options{TrainArgs: []uint64{randprog.TrainTrips(cfg)}},
			runArgs:   args,
			ref:       reference{ret: ret, out: out},
		})
	}
	if h.opt.corruptRef {
		c.r[0].ref = c.r[0].ref.corrupted()
	}
	return nil
}

func (c *compileCold) op(h *harness, row, _ int, rec *recorder, id int) (time.Duration, func() error) {
	r := &c.r[row]
	t0 := time.Now()
	s := rec.begin(r.buildSpan, id)
	mod := r.build()
	rec.end(s)
	s = rec.begin("core.parallelize", id)
	par, err := core.Parallelize(mod, r.opts)
	rec.end(s)
	d := time.Since(t0)
	if err == nil && rec != nil {
		c.ledger(h, r, row, par, rec, id)
	}
	return d, func() error {
		if err != nil {
			return err
		}
		rt, ret, err := core.Run(par, specrt.Config{Workers: workers()}, r.runArgs...)
		if err != nil {
			return fmt.Errorf("running the compiled module: %w", err)
		}
		return r.ref.check(ret, rt.Output())
	}
}

// ledger times, on a second fresh module, the three stages of
// core.Parallelize that are public functions of their own, and reads
// the compile's counts. Parallelize minus these three is core.static_ms.
func (c *compileCold) ledger(h *harness, r *compileRow, row int, par *core.Parallelized, rec *recorder, id int) {
	s := rec.begin("harness.probe_build", id)
	mod := r.build()
	rec.end(s)
	s = rec.begin("ir.verify", id)
	_ = ir.Verify(mod) // the module verified a moment ago inside Parallelize
	rec.end(s)
	s = rec.begin("profiling.run", id)
	_, _ = profiling.Run(mod, r.opts.TrainArgs...)
	rec.end(s)
	s = rec.begin("analysis.pointsto", id)
	analysis.ComputePointsTo(mod)
	rec.end(s)

	s = rec.begin("harness.sample", id)
	defer rec.end(s)
	instrs := 0
	for _, f := range par.Mod.SortedFuncs() {
		f.Instrs(func(*ir.Instr) { instrs++ })
	}
	rejected := 0
	for _, rep := range par.Reports {
		if !rep.Selected {
			rejected++
		}
	}
	var inserted, elided, proven int
	for _, ri := range par.Regions {
		t := ri.TStats
		inserted += t.SeparationChecks + t.PrivacyReads + t.PrivacyWrites
		elided += t.SeparationElided + t.Eliminated + t.HeapRedundantUO
		proven += t.StaticProven
	}
	for name, v := range map[string]int{
		"ir.instrs_after":           instrs,
		"profiling.steps":           int(par.Profile.Steps),
		"core.regions_selected":     len(par.Regions),
		"core.loops_rejected":       rejected,
		"transform.checks_inserted": inserted,
		"transform.checks_elided":   elided,
		"transform.static_proven":   proven,
	} {
		h.traced.add(name, row, float64(v))
	}
}

func (c *compileCold) report(h *harness) {
	var paper, random []int
	for i, r := range c.r {
		if r.paper {
			paper = append(paper, i)
		} else {
			random = append(random, i)
		}
	}
	v, n := h.opTime()
	h.emit("op_ms", v/1e6, n)
	v, n = h.timed.geo("op")
	h.emit("compile_ms", v/1e6, n)
	v, n = h.timed.geo("op", paper...)
	h.emit("compile_paper_ms", v/1e6, n)
	v, n = h.timed.geo("op", random...)
	h.emit("compile_random_ms", v/1e6, n)
	if !h.opt.trace {
		return
	}
	t := h.traced
	for metric, span := range map[string]string{
		"progs.build_ms":       "progs.build",
		"randprog.generate_ms": "randprog.generate",
		"ir.verify_ms":         "ir.verify",
		"profiling.run_ms":     "profiling.run",
		"analysis.pointsto_ms": "analysis.pointsto",
		"core.parallelize_ms":  "core.parallelize",
	} {
		v, n := t.mean(span)
		h.emit(metric, v/1e6, n)
	}
	for _, name := range []string{"ir.instrs_after", "profiling.steps", "core.regions_selected",
		"core.loops_rejected", "transform.checks_inserted", "transform.checks_elided", "transform.static_proven"} {
		_, n := t.medians(name)
		h.emit(name, t.sum(name), n)
	}
	_, n = t.medians("core.parallelize")
	h.emit("core.static_ms", (t.sum("core.parallelize")-t.sum("ir.verify")-t.sum("profiling.run")-
		t.sum("analysis.pointsto"))/1e6/float64(len(c.r)), n)
	h.emit("profiling.ns_per_step", t.sum("profiling.run")/t.sum("profiling.steps"), n)
	h.emit("profiling.paper_share", t.sum("profiling.run", paper...)/t.sum("core.parallelize", paper...), n)
	h.emit("profiling.random_share", t.sum("profiling.run", random...)/t.sum("core.parallelize", random...), n)
}
