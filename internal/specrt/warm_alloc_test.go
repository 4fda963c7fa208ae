package specrt_test

import (
	"runtime"
	"slices"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// warmRef is one paper program compiled at ref, with the decoded program
// and the pool its runs share, as the region service and the repository
// benchmark hold them.
type warmRef struct {
	par  *core.Parallelized
	prog *interp.Program
	pool *specrt.WorkerPool
}

func compileWarmRef(t *testing.T, p *progs.Program) *warmRef {
	t.Helper()
	par, err := core.Parallelize(p.Build(p.Ref), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &warmRef{par: par, prog: interp.SharedProgram(par.Mod), pool: specrt.NewWorkerPool(0)}
}

// run is one Run at W = 2 over the shared pool; it returns the bytes the
// Run allocated and its runtime.
func (w *warmRef) run(t *testing.T, rate float64, seed uint64) (uint64, *specrt.RT) {
	t.Helper()
	rt := specrt.New(w.par.Mod, specrt.Config{Workers: 2, MisspecRate: rate, Seed: seed,
		Program: w.prog, Pool: w.pool}, w.par.Regions...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, rt
}

// recoverRefAllocBudget is the bytes a warm dijkstra/ref run under 3 %
// injection may allocate at the median of sixteen, two passes over its
// eight seeds: the median it reads, 4,696 B (4.0–5.3 KB over eleven
// series, the higher ones on a loaded host, Go 1.24 on x86-64; the rest is
// output and the runtime's own record), plus a quarter. It read 5.0–6.2 KB
// while each RT counted its misspeculations into a map of its own and
// rendered an object name per misspeculation, 8.4 KB while prints went
// through fmt, and 149 KB while each span's clones and the master's
// recovery regrew the allocator's free lists and object maps, and every
// Run built a fresh recovery interpreter and live-object registry.
const recoverRefAllocBudget = 5_870

// TestRecoveryAtRefAllocatesOnlyOutput: a warm misspeculating run at ref
// finds every piece of bookkeeping an earlier run grew — the allocator's
// free lists and object maps on the master and on the workers, the recovery
// interpreter's frame slabs, the live-object registry and the checkpoint
// buffers — where that run left it, and allocates little more than its
// output. dijkstra recovers most and allocates most at ref, so it carries
// the gate: W = 2, 3 % injection (Figure 9's middle rate), the pool warmed
// by two passes over the same eight seeds the measured runs use, the median
// of sixteen held to recoverRefAllocBudget.
func TestRecoveryAtRefAllocatesOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the budget")
	}
	w := compileWarmRef(t, progs.ByName("dijkstra"))
	const seeds = 8
	for pass := 0; pass < 2; pass++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			w.run(t, 0.03, seed)
		}
	}
	var runs []uint64
	var recoveries int64
	for pass := 0; pass < 2; pass++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			b, rt := w.run(t, 0.03, seed)
			runs = append(runs, b)
			recoveries += rt.Stats.Recoveries
		}
	}
	if recoveries == 0 {
		t.Fatal("injection produced no recovery")
	}
	slices.Sort(runs)
	median := (runs[seeds-1] + runs[seeds]) / 2
	t.Logf("bytes per run, sorted: %v (median %d, budget %d)", runs, median, recoverRefAllocBudget)
	if median > recoverRefAllocBudget {
		t.Errorf("a warm misspeculating dijkstra/ref run allocates %d B at the median, over the %d B budget",
			median, recoverRefAllocBudget)
	}
}

// cleanRefAllocBudget is the bytes one clean warm run of each of the five
// paper programs at ref and W = 2 may allocate together, at the median of
// five such passes: the median it reads, 20,944 B (20.9–21.0 KB over three
// series, Go 1.24 on x86-64; enc-md5's output is 16 KB of it), plus a
// quarter. The same pass allocated 37 KB while prints were formatted
// through fmt into a growing builder, and 83 KB when spans regrew the
// allocator's maps, the registry was built per Run and each span parked a
// new slot per worker: dijkstra alone read 25 KB, enc-md5 33 KB and
// swaptions 16 KB.
const cleanRefAllocBudget = 26_180

// TestCleanWarmRunAtRefAllocatesOnlyOutput holds a clean warm run of the
// five paper programs at ref to cleanRefAllocBudget: their spans re-clone
// pooled worker spaces whose allocator keeps its free lists and object
// maps, the master gets its allocator state back at every Reown, and the
// run's registry and worker bookkeeping come back from the pool slots.
// The budget holds the five runs of a pass together, since what a small
// program allocates moves by a goroutine's descriptor or two from pass to
// pass.
func TestCleanWarmRunAtRefAllocatesOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the budget")
	}
	var ws []*warmRef
	for _, p := range progs.All() {
		ws = append(ws, compileWarmRef(t, p))
	}
	pass := func() (total uint64, each []uint64) {
		for _, w := range ws {
			b, _ := w.run(t, 0, 0)
			total += b
			each = append(each, b)
		}
		return total, each
	}
	pass()
	pass()
	var passes []uint64
	for i := 0; i < 5; i++ {
		total, each := pass()
		t.Logf("pass %d: %d B, per program %v", i, total, each)
		passes = append(passes, total)
	}
	slices.Sort(passes)
	t.Logf("bytes per pass, sorted: %v (budget %d)", passes, cleanRefAllocBudget)
	if passes[2] > cleanRefAllocBudget {
		t.Errorf("a clean warm pass over the five programs at ref allocates %d B at the median, over the %d B budget",
			passes[2], cleanRefAllocBudget)
	}
}
