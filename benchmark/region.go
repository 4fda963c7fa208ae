package main

import (
	"fmt"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// paperWorkers is the machine the paper models; sim_speedup is taken
// there, whatever the host has.
const paperWorkers = 24

// recoverRate is Figure 9's mid misspeculation rate.
const recoverRate = 0.03

// injectionSeeds is how many distinct injection seeds region_recover
// cycles through. Which iterations misspeculate moves a run's time by a
// tenth, so every run draws from the same small pool, which ten passes
// cover, and the run's seed only picks where in the pool it starts.
const injectionSeeds = 8

// compiledProgram is a paper program compiled the way service.compiledFor
// compiles it, with what its runs share and its expected outcome.
type compiledProgram struct {
	p        *progs.Program
	in       progs.Input
	par      *core.Parallelized
	shared   *interp.Program
	pool     *specrt.WorkerPool
	ref      reference
	seqSteps int64
}

// compileProgram builds and compiles p at in, computes the reference
// with the native implementation and counts the sequential steps. It
// files what it observes on the way into the sink, under row.
func compileProgram(p *progs.Program, in progs.Input, into *samples, row int) (*compiledProgram, error) {
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("compiling %s/%s: %w", p.Name, in.Name, err)
	}
	t0 := time.Now()
	shared := interp.SharedProgram(par.Mod)
	into.add("interp.shared_program", row, float64(time.Since(t0)))
	ret, out := p.Reference(in)
	cp := &compiledProgram{p: p, in: in, par: par, shared: shared,
		pool: specrt.NewWorkerPool(0),
		ref:  reference{ret: ret, out: out, float: p.FloatResult}}
	seq := interp.New(p.Build(in), vm.NewAddressSpace())
	if _, err := seq.Run(); err != nil {
		return nil, fmt.Errorf("%s/%s sequential: %w", p.Name, in.Name, err)
	}
	cp.seqSteps = seq.Steps
	into.add("interp.steps_seq", row, float64(seq.Steps))
	return cp, nil
}

// config is the specrt.Config service.run builds, at the given fleet size.
func (cp *compiledProgram) config(w int) specrt.Config {
	return specrt.Config{Workers: w, Program: cp.shared, Pool: cp.pool}
}

// newRT is the first half of core.Run, split off so that the traced
// pass can time construction and execution apart.
func (cp *compiledProgram) newRT(cfg specrt.Config) *specrt.RT {
	return specrt.New(cp.par.Mod, cfg, cp.par.Regions...)
}

// region is region_ref and region_recover. One op = one whole-program
// run of a compiled paper program at the ref input (train under
// -smoke). region_ref
// alternates a sequential leg (core.RunSequential on a fresh,
// untransformed module) with a speculative leg (core.Run as service.run
// calls it); region_recover runs the speculative leg only, under
// injected misspeculation.
type region struct {
	recover bool
	progs   []*compiledProgram
}

// legs is how many rows each program has.
func (r *region) legs() int {
	if r.recover {
		return 1
	}
	return 2
}

func (r *region) rows() []string {
	var names []string
	for _, p := range progs.All() {
		if !r.recover {
			names = append(names, p.Name+"/seq")
		}
		names = append(names, p.Name+"/spec")
	}
	return names
}

// specRows lists the speculative leg's rows, seqRows the sequential one's.
func (r *region) specRows() (rows []int) {
	for i := range progs.All() {
		rows = append(rows, i*r.legs()+r.legs()-1)
	}
	return rows
}

func (r *region) seqRows() (rows []int) {
	for i := range progs.All() {
		rows = append(rows, i*2)
	}
	return rows
}

func (r *region) setup(h *harness) error {
	r.progs = r.progs[:0]
	for i, p := range progs.All() {
		row := i*r.legs() + r.legs() - 1
		in := p.Ref
		if h.opt.smoke {
			in = p.Train
		}
		cp, err := compileProgram(p, in, h.setup, row)
		if err != nil {
			return err
		}
		r.progs = append(r.progs, cp)
	}
	if h.opt.corruptRef {
		r.progs[0].ref = r.progs[0].ref.corrupted()
	}
	return nil
}

func (r *region) op(h *harness, row, pass int, rec *recorder, id int) (time.Duration, func() error) {
	cp := r.progs[row/r.legs()]
	if !r.recover && row%2 == 0 {
		s := rec.begin("progs.build", id)
		mod := cp.p.Build(cp.in)
		rec.end(s)
		t0 := time.Now()
		s = rec.begin("interp.run_sequential", id)
		ret, out, err := core.RunSequential(mod)
		rec.end(s)
		d := time.Since(t0)
		return d, func() error {
			if err != nil {
				return err
			}
			return cp.ref.check(ret, out)
		}
	}
	cfg := cp.config(workers())
	if r.recover {
		cfg.MisspecRate = recoverRate
		cfg.Seed = 1 + (uint64(h.opt.seed)+uint64(pass))%injectionSeeds
	}
	before := cp.pool.Snapshot()
	t0 := time.Now()
	s := rec.begin("specrt.new", id)
	rt := cp.newRT(cfg)
	rec.end(s)
	s = rec.begin("specrt.run", id)
	ret, err := rt.Run()
	rec.end(s)
	d := time.Since(t0)
	if rec != nil {
		s = rec.begin("harness.sample", id)
		sampleRuntime(h.traced, row, rt, cp, before)
		rec.end(s)
	}
	return d, func() error {
		if err != nil {
			return err
		}
		return cp.ref.check(ret, rt.Output())
	}
}

// sampleRuntime files one finished speculative run's counters: specrt's
// Stats and Sim, the master space's vm.Stats and the pool's traffic.
func sampleRuntime(into *samples, row int, rt *specrt.RT, cp *compiledProgram, poolBefore specrt.WorkerPoolStats) {
	st := rt.Stats.Snapshot()
	sim := rt.Sim
	pool := cp.pool.Snapshot()
	vs := rt.Master().AS.Stats
	for name, v := range map[string]int64{
		"specrt.spawn_ns":           st.SpawnNS,
		"specrt.join_ns":            st.JoinNS,
		"specrt.checkpoint_ns":      st.CheckpointNS,
		"specrt.priv_read_ns":       st.PrivReadNS,
		"specrt.priv_write_ns":      st.PrivWriteNS,
		"specrt.worker_busy_ns":     st.WorkerBusyNS,
		"specrt.region_wall_ns":     st.RegionWallNS,
		"specrt.invocations":        st.Invocations,
		"specrt.checkpoints":        st.Checkpoints,
		"specrt.priv_read_checks":   st.PrivReadChecks,
		"specrt.priv_write_checks":  st.PrivWriteChecks,
		"specrt.separation_checks":  st.SeparationChecks,
		"specrt.proven_range_bytes": st.ProvenRangeBytes,
		"specrt.warm_spawns":        st.WarmSpawns,
		"specrt.misspecs":           st.Misspecs,
		"specrt.recoveries":         st.Recoveries,
		"specrt.fallbacks":          st.SequentialFallbacks,
		"specrt.recovery_steps":     sim.RecoverySteps,
		"specrt.sim_time":           sim.Time(),
		"sim.capacity":              sim.RegionCapacity,
		"sim.useful":                sim.UsefulSteps,
		"sim.priv":                  sim.PrivReadCost + sim.PrivWriteCost,
		"sim.checkpoint":            sim.CheckpointCost,
		"sim.spawn":                 sim.SpawnCost,
		"sim.idle":                  sim.IdleCost(),
		"pool.reuses":               pool.Reuses - poolBefore.Reuses,
		"pool.misses":               pool.Misses - poolBefore.Misses,
		"vm.pages_copied":           vs.PagesCopied,
		"vm.nodes_copied":           vs.NodesCopied,
		"vm.summary_hits":           vs.SummaryHits,
		"seq_steps":                 cp.seqSteps,
	} {
		into.add(name, row, float64(v))
	}
}

// reportRuntime emits the specrt, interp and vm ledger from what
// sampleRuntime filed under rows, plus the "specrt.new" and "specrt.run"
// spans; seqNSPerStep is 0 when the workload has no sequential leg.
func reportRuntime(h *harness, rows []int, seqNSPerStep float64) {
	t := h.traced
	_, n := t.medians("specrt.run", rows...)
	us := func(metric, name string) {
		v, _ := t.mean(name, rows...)
		h.emit(metric, v/1e3, n)
	}
	ms := func(metric, name string) {
		v, _ := t.mean(name, rows...)
		h.emit(metric, v/1e6, n)
	}
	us("specrt.new_us", "specrt.new")
	ms("specrt.run_ms", "specrt.run")
	us("specrt.spawn_us", "specrt.spawn_ns")
	us("specrt.join_us", "specrt.join_ns")
	us("specrt.checkpoint_us", "specrt.checkpoint_ns")
	us("specrt.priv_read_us", "specrt.priv_read_ns")
	us("specrt.priv_write_us", "specrt.priv_write_ns")
	ms("specrt.worker_busy_ms", "specrt.worker_busy_ns")
	ms("specrt.region_wall_ms", "specrt.region_wall_ns")
	for _, name := range []string{"specrt.invocations", "specrt.checkpoints", "specrt.priv_read_checks",
		"specrt.priv_write_checks", "specrt.separation_checks", "specrt.proven_range_bytes",
		"specrt.warm_spawns", "specrt.misspecs", "specrt.recoveries", "specrt.fallbacks",
		"specrt.recovery_steps", "specrt.sim_time", "vm.pages_copied", "vm.nodes_copied", "vm.summary_hits"} {
		h.emit(name, t.sum(name, rows...), n)
	}
	sum := func(name string) float64 { return t.sum(name, rows...) }
	h.emit("specrt.master_ms", (sum("specrt.run")-sum("specrt.region_wall_ns"))/1e6/float64(len(rows)), n)
	h.emit("specrt.parallel_efficiency",
		sum("specrt.worker_busy_ns")/(float64(h.specWorkers())*sum("specrt.region_wall_ns")), n)
	h.emit("specrt.pool_hit_ratio", sum("pool.reuses")/(sum("pool.reuses")+sum("pool.misses")), n)
	h.emit("specrt.useful_ratio", sum("seq_steps")/(sum("sim.useful")+sum("specrt.recovery_steps")), n)
	for metric, name := range map[string]string{
		"specrt.sim_useful_share":     "sim.useful",
		"specrt.sim_priv_share":       "sim.priv",
		"specrt.sim_checkpoint_share": "sim.checkpoint",
		"specrt.sim_spawn_share":      "sim.spawn",
		"specrt.sim_idle_share":       "sim.idle",
	} {
		h.emit(metric, sum(name)/sum("sim.capacity"), n)
	}
	// Geometric mean of per-program ratios, like wall_speedup beside it.
	var simW []float64
	steps, _ := t.medians("seq_steps", rows...)
	times, _ := t.medians("specrt.sim_time", rows...)
	for i := range steps {
		simW = append(simW, steps[i]/times[i])
	}
	h.emit("specrt.sim_speedup_w", geomean(simW), n)
	spec := sum("specrt.worker_busy_ns") / sum("sim.useful")
	h.emit("interp.spec_ns_per_step", spec, n)
	if seqNSPerStep > 0 {
		h.emit("specrt.instr_slowdown", spec/seqNSPerStep, n)
	}
}

// specWorkers is the fleet size of the runs reportRuntime describes:
// the service's shipped default on service_short, W elsewhere.
func (h *harness) specWorkers() int {
	if h.opt.workload == "service_short" {
		return serviceWorkers
	}
	return workers()
}

// simSpeedup makes one untimed clean run per program on the modelled
// machine and returns the geometric mean of sequential steps over
// simulated time. Simulated time does not depend on the host, so the
// value must repeat exactly.
func (r *region) simSpeedup(h *harness) float64 {
	var speedups []float64
	for _, cp := range r.progs {
		rt, ret, err := core.Run(cp.par, specrt.Config{Workers: paperWorkers, Program: cp.shared})
		h.attempted++
		if err == nil {
			err = cp.ref.check(ret, rt.Output())
		}
		if err != nil {
			h.fail("%s at %d modelled workers: %v", cp.p.Name, paperWorkers, err)
			continue
		}
		speedups = append(speedups, float64(cp.seqSteps)/float64(rt.Sim.Time()))
	}
	return geomean(speedups)
}

func (r *region) report(h *harness) {
	spec := r.specRows()
	v, n := h.opTime(spec...)
	h.emit("op_ms", v/1e6, n)
	v, n = h.timed.geo("op", spec...)
	h.emit("run_ms", v/1e6, n)

	// The tail: every speculative run's time over its program's median,
	// pooled so that the percentile has samples beyond it.
	var rel []float64
	for _, row := range spec {
		obs := h.timed.v["op"][row]
		m := median(obs)
		for _, x := range obs {
			rel = append(rel, x/m)
		}
	}
	mean, _ := h.timed.mean("op", spec...)
	h.emit("specrt.run_p90_ms", percentile(rel, 90)*mean/1e6, len(rel))

	wall := 0.0
	if !r.recover {
		seq := r.seqRows()
		v, n = h.timed.geo("op", seq...)
		h.emit("seq_ms", v/1e6, n)
		sm, _ := h.timed.medians("op", seq...)
		pm, _ := h.timed.medians("op", spec...)
		var ratios []float64
		for i := range sm {
			ratios = append(ratios, sm[i]/pm[i])
		}
		wall = geomean(ratios)
		h.emit("wall_speedup", wall, n)
		h.emit("sim_speedup", r.simSpeedup(h), len(r.progs))
	}
	if !h.opt.trace {
		return
	}
	_, n = h.setup.medians("interp.steps_seq")
	h.emit("interp.steps_seq", h.setup.sum("interp.steps_seq"), n)
	v, n = h.setup.mean("interp.shared_program")
	h.emit("interp.shared_program_us", v/1e3, n)
	seqNS := 0.0
	if !r.recover {
		_, n = h.traced.medians("interp.run_sequential")
		seqNS = h.traced.sum("interp.run_sequential") / h.setup.sum("interp.steps_seq")
		h.emit("interp.seq_ns_per_step", seqNS, n)
		v, n = h.traced.mean("progs.build")
		h.emit("progs.build_ms", v/1e6, n)
	}
	reportRuntime(h, spec, seqNS)
	if wall > 0 {
		h.emit("specrt.sim_wall_gap", h.value("specrt.sim_speedup_w")/wall, n)
	}
	for i, cp := range r.progs {
		probeVM(h.traced, i, cp.p, cp.in)
	}
	reportVM(h)
}
