package specrt_test

import (
	"runtime"
	"sort"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// recoveryAllocBudget is the bytes a misspeculating 052.alvinn/train run
// over a warm pool may allocate: the 2,512 B it reads at the median in the
// series where the runtime builds goroutine descriptors for the span
// goroutines (1,552 B in most, Go 1.24 on x86-64) plus a quarter, since the
// master gets its allocator state back at every reown and the run's
// recovery interpreter, registry and worker bookkeeping come back from its
// pool slots. The budget before was 19,580 B, over a median of 15,664 B
// that spans reached once they recycled their checkpoint objects and kept
// their workers, snapshots and argument buffers; before that it was
// 53,556 B, half of the 107,112 B it had while every run built its master's
// space and interpreter afresh; that was itself half of the 214,224 B the
// run allocated while the master kept paying copy-on-write for a tree no
// parked worker could read any more, every recovery built a fresh
// interpreter and every install a fresh reduction total.
const recoveryAllocBudget = 3_140

// TestRecoveryAllocatesLittle pins what reowning buys recovery: once a span's
// fleet is parked the master writes its own pages in place, so installing
// the valid prefix and re-executing the misspeculated iterations copy no
// radix node and no page, the recovery interpreter is reused with its frame
// slabs, checkpoints and reduction totals come from the checkpoint buffers'
// free list, and the master's own space, interpreters and registry come
// from the pool.
// A warm run with 5 % of iterations injected stays
// within recoveryAllocBudget (the median of five runs, so one schedule that
// squashes late does not decide it).
func TestRecoveryAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the budget")
	}
	p := progs.ByName("052.alvinn")
	par, err := core.Parallelize(p.Build(p.Train), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := interp.SharedProgram(par.Mod)
	pool := specrt.NewWorkerPool(0)
	run := func() uint64 {
		rt := specrt.New(par.Mod, specrt.Config{Workers: 2, MisspecRate: 0.05, Seed: 2,
			Program: prog, Pool: pool}, par.Regions...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if rt.Stats.Recoveries == 0 {
			t.Fatal("injection produced no recovery")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm the pool and the decode cache
	var runs []uint64
	for i := 0; i < 5; i++ {
		runs = append(runs, run())
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	t.Logf("bytes per run, sorted: %v (budget %d)", runs, recoveryAllocBudget)
	if runs[2] > recoveryAllocBudget {
		t.Errorf("a warm misspeculating run allocates %d B at the median, over the %d B budget",
			runs[2], recoveryAllocBudget)
	}
}
