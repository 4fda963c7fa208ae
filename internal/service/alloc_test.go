package service

import (
	"runtime"
	"slices"
	"testing"
)

// jobAllocBudget is the bytes one train job on a warm service may allocate
// at the median of fifteen, three per paper program: the median it reads,
// 3,048 B in each of five series (Go 1.24 on x86-64), plus a quarter. It
// read 3,800 B while every job grew a trace ring of its own (19 KB on
// 052.alvinn), kept every finished job, copied its Stats to the heap to
// count them and registered a priced-out run's allocations; 6,216 B before
// the program table was built once and a warm run kept its allocator
// state, registry and worker bookkeeping in its pool slots.
const jobAllocBudget = 3_810

// TestJobAllocBudget holds what a job costs the service beyond its output:
// the job and its trace ring, the program lookup, the run's runtime and
// whatever the warm pool does not give back. Jobs of the five programs at
// train run one at a time on a service at its shipped defaults but for
// RetainJobs, which is 8 so that from the warm-up on each finish evicts a
// job and each job records into a recycled ring. Two jobs per program warm
// it, and the median bytes per job, Submit to done, must stay within
// jobAllocBudget.
func TestJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the budget")
	}
	s := New(Config{RetainJobs: 8})
	defer s.Drain()
	job := func(name string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, err := s.Submit("gate", name, "train")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		runtime.ReadMemStats(&after)
		if v := s.View(j); v.State != StateDone {
			t.Fatalf("%s: %s (%s)", name, v.State, v.Error)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for round := 0; round < 2; round++ {
		for _, name := range progNames {
			job(name)
		}
	}
	var jobs []uint64
	for round := 0; round < 3; round++ {
		for _, name := range progNames {
			jobs = append(jobs, job(name))
		}
	}
	slices.Sort(jobs)
	median := jobs[len(jobs)/2]
	t.Logf("bytes per job, sorted: %v (budget %d)", jobs, jobAllocBudget)
	if median > jobAllocBudget {
		t.Errorf("a warm train job allocates %d B at the median, over the %d B budget", median, jobAllocBudget)
	}
}
