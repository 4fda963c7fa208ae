package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"privateer/internal/obs"
)

// checkKept fails unless each of kept is still looked up by ID and each
// of gone answers GoneError, both through Job and through Trace.
func checkKept(t *testing.T, s *Service, kept, gone []*Job) {
	t.Helper()
	for _, j := range kept {
		if _, err := s.Job(j.ID); err != nil {
			t.Errorf("job %s (%s): %v, want it kept", j.ID, s.View(j).State, err)
		}
	}
	for _, j := range gone {
		var g *GoneError
		if _, err := s.Job(j.ID); !errors.As(err, &g) || g.ID != j.ID {
			t.Errorf("job %s: %v, want GoneError", j.ID, err)
		}
		if _, err := s.Trace(j.ID); !errors.As(err, &g) {
			t.Errorf("trace of job %s: %v, want GoneError", j.ID, err)
		}
	}
}

// TestRetentionEvictsOldestFinished: with RetainJobs finished jobs kept,
// each further finish evicts the job that finished first, whatever was
// submitted in between; a running or queued job is never evicted, however
// many jobs finish meanwhile. An evicted job's handle still views.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1, QueueDepth: 8, RetainJobs: 2})
	hold := make(chan struct{})
	s.holdRunner = hold
	defer func() {
		close(hold)
		s.Drain()
	}()
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit("t", progNames[1+i%4], "train")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// One job runs (pinned), five wait: nothing has finished.
	waitRunning(t, s, jobs[0])
	checkKept(t, s, jobs, nil)
	// Release one job at a time; the next queued job starts and pins.
	for done := 1; done <= 5; done++ {
		hold <- struct{}{}
		waitDone(t, jobs[done-1])
		waitRunning(t, s, jobs[done])
		// Finished are jobs[:done], the newest two kept; jobs[done]
		// runs and the rest wait.
		first := max(0, done-2)
		checkKept(t, s, jobs[first:], jobs[:first])
		if got, want := s.Snapshot().Jobs, len(jobs)-first; got != want {
			t.Errorf("after %d finished: snapshot counts %d jobs, want %d", done, got, want)
		}
	}
	if v := s.View(jobs[0]); v.State != StateDone || v.Output == "" {
		t.Errorf("an evicted job's handle views as %s with %d bytes of output, want done with its output",
			v.State, len(v.Output))
	}
}

// TestGoneAndUnknownStatuses: an ID the service issued whose job aged out
// answers 410 Gone on /poll and /jobs/{id}/trace; an ID it never issued
// answers 404 on both, as does a kept untraced job's trace; a kept job
// answers 200.
func TestGoneAndUnknownStatuses(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1, RetainJobs: 1})
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit("t", "dijkstra", "train")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		jobs = append(jobs, j)
	}
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		id   string
		want int
	}{
		{jobs[0].ID, http.StatusGone},
		{jobs[1].ID, http.StatusOK},
		{"j000003", http.StatusNotFound}, // the next ID, not issued yet
		{"j000000", http.StatusNotFound},
		{"j1", http.StatusNotFound}, // a number issued, in another spelling
		{"x000001", http.StatusNotFound},
	} {
		if got := status("/poll?id=" + c.id); got != c.want {
			t.Errorf("/poll?id=%s: %d, want %d", c.id, got, c.want)
		}
		if got := status("/jobs/" + c.id + "/trace"); got != c.want {
			t.Errorf("/jobs/%s/trace: %d, want %d", c.id, got, c.want)
		}
	}
	var unknown *UnknownJobError
	if _, err := s.Job("j000003"); !errors.As(err, &unknown) {
		t.Errorf("Job of an ID never issued: %v, want UnknownJobError", err)
	}

	untraced, _ := startAPI(t, Config{Workers: 2, Concurrency: 1, TraceCapacity: -1})
	j, err := untraced.Submit("t", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, err := untraced.Trace(j.ID); !errors.Is(err, ErrUntraced) {
		t.Errorf("trace of a kept untraced job: %v, want ErrUntraced", err)
	}
}

// TestRecycledRingStartsEmpty: the next job of a program records into the
// ring an evicted job of the program left, and its trace holds its own
// events only: an event planted in the evicted job's ring is gone, and
// the counts are the job's own.
func TestRecycledRingStartsEmpty(t *testing.T) {
	s := New(Config{Concurrency: 1, RetainJobs: 1})
	defer s.Drain()
	run := func() *Job {
		j, err := s.Submit("t", "052.alvinn", "train")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if v := s.View(j); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", j.ID, v.State, v.Error)
		}
		return j
	}
	first := run()
	s.mu.Lock()
	ring := first.trace
	s.mu.Unlock()
	ring.Emit(obs.Event{Kind: obs.KMisspec, Cause: "planted in the evicted job's ring"})
	run() // evicts first, whose ring goes to 052.alvinn's list
	third := run()
	s.mu.Lock()
	recycled := third.trace == ring
	s.mu.Unlock()
	if !recycled {
		t.Fatal("the third job did not record into the first job's ring")
	}
	v := s.View(third)
	events, err := s.Trace(third.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceEvents == 0 || v.TraceDropped != 0 || int64(len(events)) != v.TraceEvents {
		t.Errorf("recycled ring: %d events served, view counts %d emitted and %d dropped",
			len(events), v.TraceEvents, v.TraceDropped)
	}
	for _, ev := range events {
		if ev.Kind == obs.KMisspec {
			t.Fatalf("the recycled ring still holds the evicted job's event %+v", ev)
		}
	}
	if ev := events[0]; ev.Kind != obs.KJobPhase || ev.Cause != obs.PhaseQueued || ev.DurNS != v.QueueNS {
		t.Errorf("first event %+v, want the job's own queued phase of %d ns", ev, v.QueueNS)
	}
}

// TestTraceDuringEviction: readers fetch the traces of recent jobs while
// submitters keep finishing jobs past a small RetainJobs, so rings are
// evicted and recycled under them (run with -race). A trace fetched at
// all is its own job's: its queued phase lasts what the job's view says,
// and it holds exactly the events the view counts.
func TestTraceDuringEviction(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 2, RetainJobs: 4})
	defer s.Drain()
	const submitters, perSubmitter, readers = 2, 40, 2
	var stop atomic.Bool
	var checked, gone atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				n := s.nextID.Load() - int64(i%6)
				if n < 1 {
					continue
				}
				id := jobID(n)
				j, err := s.Job(id)
				if err != nil {
					continue
				}
				v := s.View(j)
				events, err := s.Trace(id)
				var g *GoneError
				switch {
				case errors.As(err, &g):
					gone.Add(1)
					continue
				case err != nil:
					t.Errorf("trace of %s: %v", id, err)
					return
				case v.State != StateDone:
					continue
				}
				checked.Add(1)
				if int64(len(events)) != v.TraceEvents-v.TraceDropped {
					t.Errorf("%s (%s): %d events served, the view counts %d kept", id, j.Prog, len(events), v.TraceEvents-v.TraceDropped)
					return
				}
				if ev := events[0]; ev.Kind != obs.KJobPhase || ev.DurNS != v.QueueNS {
					t.Errorf("%s: first event %+v, want its own queued phase of %d ns", id, ev, v.QueueNS)
					return
				}
			}
		}(r)
	}
	var subs sync.WaitGroup
	for w := 0; w < submitters; w++ {
		subs.Add(1)
		go func(w int) {
			defer subs.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := s.Submit(fmt.Sprint("t", w), progNames[(w+i)%2], "train")
				if err != nil {
					t.Error(err)
					return
				}
				<-j.Done()
			}
		}(w)
	}
	subs.Wait()
	stop.Store(true)
	wg.Wait()
	t.Logf("%d traces checked, %d found gone", checked.Load(), gone.Load())
	if checked.Load() == 0 {
		t.Error("no reader fetched a finished job's trace")
	}
}
