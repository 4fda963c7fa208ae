package core

import (
	"runtime"
	"slices"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/randprog"
)

// parallelizeBytes returns the bytes Parallelize allocates compiling
// enc-md5 at alt and randprog seeds 1–4, the modules built beforehand.
func parallelizeBytes(t *testing.T) uint64 {
	md5 := progs.EncMD5()
	mods := []*ir.Module{md5.Build(md5.Alt)}
	opts := []Options{{}}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := randprog.DefaultConfig(seed)
		mods = append(mods, randprog.Generate(cfg))
		opts = append(opts, Options{TrainArgs: []uint64{randprog.TrainTrips(cfg)}})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, mod := range mods {
		if _, err := Parallelize(mod, opts[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParallelizeAllocBudget bounds what the compile path allocates: the
// median of five parallelizeBytes readings stays within 1.25× the 0.929 MB
// it reads once the profiler keeps dense index sets and small shadow pages.
// It read 1.41 MB before that (48 KB pages, maps per object set), and
// 1.88 MB before the static stages computed each fact once.
func TestParallelizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make the budget meaningless")
	}
	const budget = 1_161_100
	var got []uint64
	for i := 0; i < 5; i++ {
		got = append(got, parallelizeBytes(t))
	}
	slices.Sort(got)
	if median := got[len(got)/2]; median > budget {
		t.Errorf("Parallelize allocated %d bytes at the median of %v, budget %d", median, got, budget)
	}
}
