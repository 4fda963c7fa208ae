package service

import (
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"sync"
	"testing"

	"privateer/internal/obs"
)

// requiredPhases are the lifecycle phases every clean synchronous job must
// exhibit in its trace (recovery only appears when something misspeculated).
var requiredPhases = []string{
	obs.PhaseQueued, obs.PhaseSpawn, obs.PhaseRun,
	obs.PhaseValidate, obs.PhaseMerge, obs.PhaseCommit,
}

// checkPhaseLedger asserts the service-level time identities for a
// finished job: each phase of its view is the job's queue wait or the
// run-record field that phase maps to, present exactly when nonzero, traced
// or not and whether or not the job's ring wrapped.
func checkPhaseLedger(t *testing.T, s *Service, job *Job) {
	t.Helper()
	v := s.View(job)
	s.mu.Lock()
	st := job.rec.Stats
	s.mu.Unlock()
	want := map[string]int64{
		obs.PhaseQueued: v.QueueNS, obs.PhaseSpawn: st.SpawnNS, obs.PhaseRun: st.WorkerBusyNS,
		obs.PhaseValidate: st.ValidateNS, obs.PhaseMerge: st.CheckpointNS,
		obs.PhaseCommit: st.CommitNS, obs.PhaseRecovery: st.RecoveryNS,
	}
	maps.DeleteFunc(want, func(_ string, ns int64) bool { return ns == 0 })
	if !maps.Equal(v.PhaseNS, want) {
		t.Errorf("job %s (%d of %d events dropped): phase_ns %v, want QueueNS and the Stats fields %v",
			job.ID, v.TraceDropped, v.TraceEvents, v.PhaseNS, want)
	}
}

// TestJobTraceEndToEnd: a completed job's view must carry every lifecycle
// phase of a clean speculative run, read from its run record, and its trace
// must open with the queued span the view's queued phase measures.
func TestJobTraceEndToEnd(t *testing.T) {
	s := New(Config{Workers: 4, Concurrency: 1})
	defer s.Drain()
	job, err := s.Submit("t1", "052.alvinn", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	v := s.View(job)
	if v.State != StateDone {
		t.Fatalf("job %s: %s", v.State, v.Error)
	}
	if v.TraceID != job.ID {
		t.Fatalf("trace id %q, want job id %q", v.TraceID, job.ID)
	}
	for _, ph := range requiredPhases {
		if _, ok := v.PhaseNS[ph]; !ok {
			t.Errorf("JobView.PhaseNS missing phase %s: %v", ph, v.PhaseNS)
		}
	}
	events, err := s.Trace(job.ID)
	if err != nil || len(events) == 0 {
		t.Fatalf("no trace for job %s: %v", job.ID, err)
	}
	if v.TraceEvents != int64(len(events)) || v.TraceDropped != 0 {
		t.Errorf("trace accounting: view says %d events %d dropped, ring holds %d",
			v.TraceEvents, v.TraceDropped, len(events))
	}
	// The trace's queued span and the view's queued phase are one reading.
	if ev := events[0]; ev.Kind != obs.KJobPhase || ev.Cause != obs.PhaseQueued || ev.DurNS != v.PhaseNS[obs.PhaseQueued] {
		t.Errorf("first event %+v, want the queued span lasting phase_ns[queued] %d", ev, v.PhaseNS[obs.PhaseQueued])
	}
	checkPhaseLedger(t, s, job)
	// An untraced job reports no trace.
	var unknown *UnknownJobError
	if _, err := s.Trace("j999999"); !errors.As(err, &unknown) {
		t.Errorf("trace of a never-issued ID: %v, want UnknownJobError", err)
	}
}

// TestPlantedMisspecFlight: a service run with injected misspeculation
// must surface postmortems in the flight recorder carrying misspec counts
// and allocation-site attribution.
func TestPlantedMisspecFlight(t *testing.T) {
	s := New(Config{Workers: 4, Concurrency: 1, MisspecRate: 0.5, Seed: 7})
	defer s.Drain()
	job, err := s.Submit("t1", "052.alvinn", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	v := s.View(job)
	if v.State != StateDone {
		t.Fatalf("job %s: %s", v.State, v.Error)
	}
	if v.Misspecs == 0 {
		t.Fatal("planted misspeculation did not fire; raise MisspecRate")
	}
	st := s.Flight().State()
	if st.Total == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	var pm *obs.Postmortem
	for i := range st.Postmortems {
		if st.Postmortems[i].JobID == job.ID {
			pm = &st.Postmortems[i]
			break
		}
	}
	if pm == nil {
		t.Fatalf("no postmortem for job %s in %d captures", job.ID, st.Retained)
	}
	if pm.Reason != "misspec" && pm.Reason != "fallback" {
		t.Errorf("postmortem reason %q", pm.Reason)
	}
	if pm.Misspecs == 0 {
		t.Error("postmortem carries no misspeculation count")
	}
	if len(pm.Attribution) == 0 {
		t.Error("postmortem carries no allocation-site attribution")
	}
	for _, at := range pm.Attribution {
		if at.Cause == "" || at.Count == 0 {
			t.Errorf("empty attribution row %+v", at)
		}
	}
	if len(pm.Events) == 0 || pm.TotalEvents == 0 {
		t.Error("postmortem carries no event snapshot")
	}
	if len(pm.Phases) == 0 || !maps.Equal(pm.Phases, v.PhaseNS) {
		t.Errorf("postmortem phases %v, want the job's phase_ns %v", pm.Phases, v.PhaseNS)
	}
	checkPhaseLedger(t, s, job)
}

// TestTraceOverflowDropAccounting (-race): concurrent jobs on deliberately
// tiny rings must account every overwritten event — the postmortem's
// captured-event count must equal exactly total minus dropped, the service
// counter must equal the per-job sum, and the phase totals must still be
// the whole job's.
func TestTraceOverflowDropAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Workers: 4, Concurrency: 4, Metrics: reg,
		TraceCapacity: 8,            // far below the ~40 events a job emits
		MisspecRate:   0.5, Seed: 7, // every job lands in the recorder
	})
	defer s.Drain()

	const jobs = 12
	var wg sync.WaitGroup
	jl := make([]*Job, jobs)
	for i := 0; i < jobs; i++ {
		job, err := s.Submit("hammer", "052.alvinn", "train")
		if err != nil {
			t.Fatal(err)
		}
		jl[i] = job
		wg.Add(1)
		go func(j *Job) { defer wg.Done(); <-j.Done() }(job)
	}
	wg.Wait()

	var sumTotal int64
	for _, job := range jl {
		v := s.View(job)
		if v.State != StateDone {
			t.Fatalf("job %s %s: %s", job.ID, v.State, v.Error)
		}
		if v.TraceDropped == 0 {
			t.Errorf("job %s: ring of 8 did not overflow (total %d)", job.ID, v.TraceEvents)
		}
		events, _ := s.Trace(job.ID)
		if got, want := int64(len(events)), v.TraceEvents-v.TraceDropped; got != want {
			t.Errorf("job %s: retained %d events, want total-dropped = %d", job.ID, got, want)
		}
		// The phase breakdown is the run record's, not a fold of the 8
		// events the ring still holds.
		checkPhaseLedger(t, s, job)
		sumTotal += v.TraceEvents
	}

	// The flight recorder must have captured exactly what the ring still
	// held: total minus dropped, since obs.DefaultPostmortemEvents exceeds
	// the ring.
	st := s.Flight().State()
	byJob := map[string]obs.Postmortem{}
	for _, pm := range st.Postmortems {
		byJob[pm.JobID] = pm
	}
	for _, job := range jl {
		pm, ok := byJob[job.ID]
		if !ok {
			continue // evicted by a later capture; the retained ones must balance
		}
		if got, want := int64(len(pm.Events)), pm.TotalEvents-pm.DroppedEvents; got != want {
			t.Errorf("postmortem %s: %d events captured, want %d (total %d - dropped %d)",
				job.ID, got, want, pm.TotalEvents, pm.DroppedEvents)
		}
		if pm.DroppedEvents == 0 {
			t.Errorf("postmortem %s reports no drops from an overflowed ring", job.ID)
		}
	}

	// The service-level counter aggregates the same accounting; drops stay
	// per job (trace_dropped on /poll).
	if got := reg.Counter("privateer_service_trace_events_total", "").Value(); got != sumTotal {
		t.Errorf("trace_events_total %d, want %d", got, sumTotal)
	}
}

// TestTracingDisabled: a negative TraceCapacity must disable per-job
// tracing without disturbing the job lifecycle, and the job still reports
// its time by phase, which its run record holds.
func TestTracingDisabled(t *testing.T) {
	s := New(Config{Workers: 4, Concurrency: 1, TraceCapacity: -1})
	defer s.Drain()
	job, err := s.Submit("t1", "052.alvinn", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	v := s.View(job)
	if v.State != StateDone {
		t.Fatalf("job %s: %s", v.State, v.Error)
	}
	if v.TraceID != "" || v.TraceEvents != 0 {
		t.Errorf("untraced job leaked trace state: %+v", v)
	}
	for _, ph := range requiredPhases {
		if v.PhaseNS[ph] <= 0 {
			t.Errorf("untraced job has no %s phase: %v", ph, v.PhaseNS)
		}
	}
	checkPhaseLedger(t, s, job)
	if _, err := s.Trace(job.ID); !errors.Is(err, ErrUntraced) {
		t.Errorf("trace of an untraced job: %v, want ErrUntraced", err)
	}
}

// TestHTTPJobTraceAndFlight: the /jobs/{id}/trace endpoint must serve
// Chrome-shaped JSON with every lifecycle phase, reject malformed paths
// with 400 and unknown jobs with 404; /debug/flight must serve the
// recorder state.
func TestHTTPJobTraceAndFlight(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 4, Concurrency: 1, MisspecRate: 0.5, Seed: 7})
	code, view, _ := submitHTTP(t, base, SubmitRequest{Tenant: "t1", Prog: "052.alvinn", Input: "train"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	job := mustJob(t, s, view.ID)
	waitDone(t, job)

	resp, err := http.Get(base + "/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace: %d (%s)", view.ID, resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	events, _ := s.Trace(view.ID)
	if len(doc.TraceEvents) != 1+len(events) {
		t.Errorf("trace serves %d records, want process_name plus the %d retained events", len(doc.TraceEvents), len(events))
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			seen[ev.Cat] = true
		}
	}
	for _, kind := range []obs.Kind{obs.KJobPhase, obs.KSpawn, obs.KWorkerJoin, obs.KValidate, obs.KContribute, obs.KInstall, obs.KCommit} {
		if !seen[kind.String()] {
			t.Errorf("trace has no %s span", kind)
		}
	}

	for path, want := range map[string]int{
		"/jobs/zzz/trace":           http.StatusNotFound,
		"/jobs/" + view.ID:          http.StatusBadRequest,
		"/jobs/" + view.ID + "/nah": http.StatusBadRequest,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp, err = http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var st obs.FlightState
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight: %d, %v", resp.StatusCode, err)
	}
	if st.Total == 0 || len(st.Postmortems) == 0 {
		t.Fatalf("flight state empty after a misspeculating job: %+v", st)
	}
	pm := st.Postmortems[0]
	if len(pm.Attribution) == 0 {
		t.Errorf("postmortem over HTTP carries no attribution: %+v", pm)
	}
	if v := s.View(job); !maps.Equal(pm.Phases, v.PhaseNS) {
		t.Errorf("postmortem over HTTP has phases %v, the job's phase_ns is %v", pm.Phases, v.PhaseNS)
	}
	if len(pm.Events) == 0 || pm.TotalEvents < int64(len(pm.Events)) {
		t.Errorf("postmortem over HTTP: %d events of %d total", len(pm.Events), pm.TotalEvents)
	}
}

// TestReadyzFlipsOnDrain: the readiness probe must answer 200 while
// serving and 503 once a drain begins.
func TestReadyzFlipsOnDrain(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1})
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}
	if resp2, err := http.Get(base + "/healthz"); err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v", err)
	} else {
		resp2.Body.Close()
	}
	s.Drain()
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", resp.StatusCode)
	}
}
