package service

import (
	"os"
	"runtime"
	"testing"
)

// heapAfterGC is the live heap once two collections have run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServiceSoakHeapFlat pushes 100,000 train jobs, one at a time in the
// five programs' order, through a service at its shipped defaults, and
// requires the live heap after job 100,000 to be within 1 MB of the heap
// after job 20,000: by then every bounded store (the kept jobs, the trace
// rings, the flight recorder, the pools) has filled, so any growth is a
// leak. Every 50th job is 052.alvinn run with MisspecRate set, so the
// rings of misspeculating jobs, larger than a clean job's, are in the mix.
// It takes about a minute and runs only with PRIVATEER_SOAK set.
func TestServiceSoakHeapFlat(t *testing.T) {
	if os.Getenv("PRIVATEER_SOAK") == "" {
		t.Skip("set PRIVATEER_SOAK=1 to run the 100,000-job soak")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the service's")
	}
	const jobs, settled, every, slack = 100_000, 20_000, 50, 1 << 20
	s := New(Config{})
	defer s.Drain()
	var heapSettled uint64
	for i := 1; i <= jobs; i++ {
		// No job runs between two Submits, so the rate the next job's
		// runner reads is the one set here.
		s.cfg.MisspecRate = 0
		if i%every == 0 {
			s.cfg.MisspecRate = 0.05
		}
		j, err := s.Submit("soak", progNames[i%len(progNames)], "train") // every 50th is progNames[0]
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if v := s.View(j); v.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, j.Prog, v.State, v.Error)
		}
		switch i {
		case settled:
			heapSettled = heapAfterGC()
		case jobs:
			heap := heapAfterGC()
			t.Logf("live heap after job %d: %d B; after job %d: %d B (%+d B); %d jobs kept",
				settled, heapSettled, jobs, heap, int64(heap)-int64(heapSettled), s.Snapshot().Jobs)
			if heap > heapSettled+slack {
				t.Errorf("the live heap grew by %d B between jobs %d and %d, over the %d B bound",
					heap-heapSettled, settled, jobs, slack)
			}
		}
	}
	sn := s.Snapshot()
	if sn.Jobs != DefaultRetainJobs {
		t.Errorf("%d jobs kept after the soak, want RetainJobs = %d", sn.Jobs, DefaultRetainJobs)
	}
}
