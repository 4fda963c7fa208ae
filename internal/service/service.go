package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// Defaults for Config's zero values.
const (
	// DefaultQueueDepth bounds the pending-job queue.
	DefaultQueueDepth = 64
	// DefaultConcurrency is the number of runner goroutines (concurrent
	// region invocations).
	DefaultConcurrency = 4
	// DefaultWorkers is the speculative worker fleet per invocation.
	DefaultWorkers = 4
	// DefaultTraceCapacity bounds each job's trace event ring. Per-job
	// tracing is always on; the ring grows lazily, so a short job costs
	// only the events it actually emits.
	DefaultTraceCapacity = 2048
)

// ErrDraining rejects work submitted (or still queued) after Drain began.
var ErrDraining = errors.New("service draining: not accepting jobs")

// QueueFullError rejects a submission that found the bounded queue at
// capacity: the client should back off and retry.
type QueueFullError struct {
	// Depth is the queue's capacity.
	Depth int
}

// Error describes the rejection, naming the saturated depth.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queue full (depth %d): retry later", e.Depth)
}

// QuotaError rejects a submission that would exceed the tenant's inflight
// quota (queued + running jobs).
type QuotaError struct {
	// Tenant is the over-quota tenant.
	Tenant string
	// Limit is the tenant's inflight cap.
	Limit int
}

// Error describes the rejection, naming the tenant and its cap.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q at inflight quota (%d jobs)", e.Tenant, e.Limit)
}

// UnknownProgramError rejects a submission naming a program or input class
// the service does not serve.
type UnknownProgramError struct {
	// Name is the unrecognized program or input name.
	Name string
}

// Error describes the rejection, naming the unrecognized identifier.
func (e *UnknownProgramError) Error() string {
	return fmt.Sprintf("unknown program or input %q", e.Name)
}

// Config sizes a Service. Zero values select the defaults above.
type Config struct {
	// Workers is the speculative worker fleet per region invocation.
	Workers int
	// Concurrency is the number of runner goroutines: at most this many
	// region invocations execute at once.
	Concurrency int
	// QueueDepth bounds pending (admitted but not yet running) jobs;
	// submissions beyond it fail with QueueFullError.
	QueueDepth int
	// TenantInflight caps one tenant's queued-plus-running jobs; 0 means
	// no per-tenant quota.
	TenantInflight int
	// PoolSlots is the warmed worker-pool capacity per compiled program
	// (0 selects specrt.DefaultPoolSlots).
	PoolSlots int
	// Metrics, when non-nil, receives the service's tenant-labeled metric
	// families and the runtime's privateer_*_total counters, into which
	// every finished job's specrt.Stats is added.
	Metrics *obs.Registry
	// TraceCapacity bounds each job's trace event ring: 0 selects
	// DefaultTraceCapacity, negative disables per-job tracing entirely
	// (the obsoverhead benchmark's baseline leg uses that).
	TraceCapacity int
	// FlightEntries bounds the postmortem flight recorder ring (0 selects
	// obs.DefaultFlightEntries).
	FlightEntries int
	// MisspecRate injects artificial misspeculation into every invocation
	// at the given per-iteration probability (forwarded to the runtime) —
	// an operator drill knob for exercising the flight recorder.
	MisspecRate float64
	// Seed makes misspeculation injection deterministic.
	Seed uint64
}

// Job states reported by JobView.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one admitted region invocation. Mutable fields are guarded by the
// owning Service's mutex; external readers use View or Done.
type Job struct {
	// ID is the service-assigned job identifier.
	ID string
	// Tenant attributes the job to its submitter.
	Tenant string
	// Prog names the benchmark program to run.
	Prog string
	// Input is the program's input class.
	Input string

	state     string
	ret       uint64
	output    string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	// rec is the runtime's run record and phases its time by phase with
	// the queue wait added, both settled at finish.
	rec    specrt.Record
	phases map[string]int64
	done   chan struct{}

	// Per-job flight-recorder state: the bounded event ring the job's
	// tracer feeds (the job ID is the trace ID).
	trace        *obs.Collector
	tracer       *obs.Tracer
	traceTotal   int64
	traceDropped int64
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is a point-in-time JSON snapshot of a job.
type JobView struct {
	// ID is the service-assigned job identifier.
	ID string `json:"id"`
	// Tenant attributes the job to its submitter.
	Tenant string `json:"tenant"`
	// Prog names the benchmark program.
	Prog string `json:"prog"`
	// Input is the program's input class.
	Input string `json:"input"`
	// State is queued, running, done or failed.
	State string `json:"state"`
	// Ret is the invocation's return value; meaningful when done.
	Ret uint64 `json:"ret"`
	// Output is the program's collected output; meaningful when done.
	Output string `json:"output,omitempty"`
	// Error describes a failed job.
	Error string `json:"error,omitempty"`
	// QueueNS is time spent queued before a runner picked the job up.
	QueueNS int64 `json:"queue_ns"`
	// WallNS is time spent executing (so far, for a running job).
	WallNS int64 `json:"wall_ns"`
	// WarmSpawns counts this invocation's pool-satisfied worker spawns.
	WarmSpawns int64 `json:"warm_spawns"`
	// TraceID is the job's trace identifier (the job ID) when per-job
	// tracing is enabled; GET /jobs/{id}/trace serves the full stream.
	TraceID string `json:"trace_id,omitempty"`
	// PhaseNS breaks the job's time down by lifecycle phase (queued,
	// spawn, run, validate, merge, commit, recovery → nanoseconds): the
	// queue wait and the run record's Stats.PhaseNS, settled when the job
	// reaches a terminal state. A job that never ran has none.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// Invocations counts the run's speculated region invocations: 0 when
	// the compile priced every loop out and the job ran in order.
	Invocations int64 `json:"invocations"`
	// Misspecs counts the run's detected misspeculations.
	Misspecs int64 `json:"misspecs"`
	// TraceEvents is how many trace events the job emitted in all.
	TraceEvents int64 `json:"trace_events"`
	// TraceDropped is how many of those the bounded ring overwrote
	// before they could be read.
	TraceDropped int64 `json:"trace_dropped"`
}

// compiled is the shared immutable state for one (program, input) pair:
// the parallelized module, the one decoded Program every job of the pair
// shares, and the warmed worker pool every invocation of it draws from.
type compiled struct {
	pool *specrt.WorkerPool // set at insertion, before once runs
	once sync.Once
	par  *core.Parallelized
	prog *interp.Program
	err  error
}

// tenantCounts aggregates one tenant's job traffic for Snapshot.
type tenantCounts struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Inflight  int64 `json:"inflight"`
}

// Service is the multi-tenant region service: admission control in front
// of a bounded queue drained by a fixed runner fleet.
type Service struct {
	cfg Config

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	tenants  map[string]*tenantCounts
	programs map[string]*compiled

	queue     chan *Job
	drainFlag atomic.Bool
	// holdRunner, when non-nil, blocks each runner after it marks a job
	// running and before it executes — a seam for tests that need a job
	// pinned in flight (set before the first Submit; closed to release).
	holdRunner chan struct{}
	wg         sync.WaitGroup
	nextID     atomic.Int64
	inflight   atomic.Int64

	flight *obs.FlightRecorder

	mSubmitted   func(tenant string) obs.Counter
	mCompleted   func(tenant string) obs.Counter
	mFailed      func(tenant string) obs.Counter
	mRejected    func(reason string) obs.Counter
	mPhase       func(tenant, phase string) *obs.Histogram
	mInflight    obs.Gauge
	mQueueWait   *obs.Histogram
	mE2E         *obs.Histogram
	mRuntime     specrt.StatCounters
	mTraceEvents obs.Counter
}

// New starts a service: runner goroutines launch immediately and block on
// the empty queue. Shut down with Drain.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = DefaultConcurrency
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Service{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		tenants:  map[string]*tenantCounts{},
		programs: map[string]*compiled{},
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	reg := cfg.Metrics
	s.mSubmitted = func(t string) obs.Counter {
		return reg.Counter("privateer_service_jobs_submitted_total",
			"Jobs admitted into the queue, by tenant.", "tenant", t)
	}
	s.mCompleted = func(t string) obs.Counter {
		return reg.Counter("privateer_service_jobs_completed_total",
			"Jobs finished successfully, by tenant.", "tenant", t)
	}
	s.mFailed = func(t string) obs.Counter {
		return reg.Counter("privateer_service_jobs_failed_total",
			"Jobs that reached a terminal error, by tenant.", "tenant", t)
	}
	s.mRejected = func(reason string) obs.Counter {
		return reg.Counter("privateer_service_jobs_rejected_total",
			"Submissions refused at admission, by reason (unknown_program, quota, queue_full, draining).",
			"reason", reason)
	}
	s.mPhase = func(tenant, phase string) *obs.Histogram {
		return reg.Histogram("privateer_service_phase_ns",
			"Per-job lifecycle-phase latency in nanoseconds, by tenant and phase (queued, spawn, run, validate, merge, commit, recovery).",
			obs.LatencyBuckets, "tenant", tenant, "phase", phase)
	}
	s.mInflight = reg.Gauge("privateer_service_inflight",
		"Region invocations currently executing.")
	s.mQueueWait = reg.Histogram("privateer_service_queue_wait_ns",
		"Nanoseconds each job waited in the queue before a runner picked it up.",
		obs.LatencyBuckets)
	s.mE2E = reg.Histogram("privateer_service_e2e_ns",
		"End-to-end nanoseconds per job, submission to terminal state.",
		obs.LatencyBuckets)
	s.mRuntime = specrt.NewStatCounters(reg)
	s.mTraceEvents = reg.Counter("privateer_service_trace_events_total",
		"Trace events emitted across all per-job rings, including overwritten ones.")
	s.flight = obs.NewFlightRecorder(cfg.FlightEntries)
	s.flight.PublishMetrics(reg)
	reg.GaugeFunc("privateer_service_queue_depth",
		"Jobs admitted but not yet running.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("privateer_service_draining",
		"1 while a graceful drain is in progress, else 0.",
		func() float64 {
			if s.drainFlag.Load() {
				return 1
			}
			return 0
		})
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// lookup validates a program/input pair against the benchmark registry.
func lookup(prog, input string) (*progs.Program, progs.Input, error) {
	p := progs.ByName(prog)
	if p == nil {
		return nil, progs.Input{}, &UnknownProgramError{Name: prog}
	}
	if input == "" {
		input = "ref"
	}
	in, ok := p.Input(input)
	if !ok {
		return nil, progs.Input{}, &UnknownProgramError{Name: input}
	}
	return p, in, nil
}

// Submit admits a job or returns a typed rejection: UnknownProgramError,
// QuotaError, QueueFullError or ErrDraining. tenant "" is the tenant
// "default"; input "" is the ref input class.
func (s *Service) Submit(tenant, prog, input string) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	if input == "" {
		input = "ref"
	}
	if _, _, err := lookup(prog, input); err != nil {
		s.mRejected("unknown_program").Inc()
		s.recordRejection(tenant, prog, input, err)
		return nil, err
	}
	job := &Job{
		Tenant: tenant, Prog: prog, Input: input,
		state: StateQueued, submitted: time.Now(),
		done: make(chan struct{}),
	}
	// Tracing is per job and on by default: the tracer's timebase starts
	// here, so queue wait is the first thing the trace sees. The job ID
	// (assigned under the lock below) doubles as the trace ID.
	if s.cfg.TraceCapacity >= 0 {
		capacity := s.cfg.TraceCapacity
		if capacity == 0 {
			capacity = DefaultTraceCapacity
		}
		job.trace = obs.NewCollector(capacity)
		job.tracer = obs.NewTracer(job.trace)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.mRejected("draining").Inc()
		s.recordRejection(tenant, prog, input, ErrDraining)
		return nil, ErrDraining
	}
	tc := s.tenants[tenant]
	if tc == nil {
		tc = &tenantCounts{}
		s.tenants[tenant] = tc
	}
	if q := s.cfg.TenantInflight; q > 0 && tc.Inflight >= int64(q) {
		s.mu.Unlock()
		s.mRejected("quota").Inc()
		s.recordRejection(tenant, prog, input, &QuotaError{Tenant: tenant, Limit: q})
		return nil, &QuotaError{Tenant: tenant, Limit: q}
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.mRejected("queue_full").Inc()
		s.recordRejection(tenant, prog, input, &QueueFullError{Depth: cap(s.queue)})
		return nil, &QueueFullError{Depth: cap(s.queue)}
	}
	job.ID = fmt.Sprintf("j%06d", s.nextID.Add(1))
	s.jobs[job.ID] = job
	tc.Submitted++
	tc.Inflight++
	s.mu.Unlock()
	s.mSubmitted(tenant).Inc()
	return job, nil
}

// Job returns the job with the given ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// View snapshots j for reporting.
func (s *Service) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, Prog: j.Prog, Input: j.Input,
		State: j.state, Ret: j.ret, Output: j.output, Error: j.errMsg,
		WarmSpawns: j.rec.Stats.WarmSpawns, Invocations: j.rec.Stats.Invocations,
		Misspecs:    j.rec.Stats.Misspecs,
		PhaseNS:     j.phases,
		TraceEvents: j.traceTotal, TraceDropped: j.traceDropped,
	}
	if j.trace != nil {
		v.TraceID = j.ID
	}
	switch j.state {
	case StateQueued:
		v.QueueNS = int64(time.Since(j.submitted))
	case StateRunning:
		v.QueueNS = int64(j.started.Sub(j.submitted))
		v.WallNS = int64(time.Since(j.started))
	default:
		v.QueueNS = int64(j.started.Sub(j.submitted))
		v.WallNS = int64(j.finished.Sub(j.started))
	}
	return v
}

// Drain performs a graceful shutdown: no new submissions, still-queued
// jobs fail with ErrDraining, in-flight invocations run to completion.
// Returns when every runner has exited; idempotent.
func (s *Service) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drainFlag.Store(true)
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// runner drains the queue, executing one invocation at a time.
func (s *Service) runner() {
	defer s.wg.Done()
	for job := range s.queue {
		if s.drainFlag.Load() {
			// Admitted before the drain, never started: typed rejection.
			s.finish(job, runResult{err: ErrDraining})
			continue
		}
		s.run(job)
	}
}

// compiledFor returns (compiling on first use) the shared artifacts for a
// program/input pair.
func (s *Service) compiledFor(prog, input string) (*compiled, error) {
	key := prog + "/" + input
	s.mu.Lock()
	c := s.programs[key]
	if c == nil {
		// The pool needs nothing from the compile, so it is built with
		// the entry under s.mu: Snapshot reads it while once.Do may
		// still be compiling.
		c = &compiled{pool: specrt.NewWorkerPool(s.cfg.PoolSlots)}
		s.programs[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		p, in, err := lookup(prog, input)
		if err != nil {
			c.err = err
			return
		}
		// The fleet prices every hot loop: one that runs slower speculated
		// than in order stays untransformed, and its jobs run on the master.
		par, err := core.Parallelize(p.Build(in), core.Options{Workers: s.cfg.Workers})
		if err != nil {
			c.err = fmt.Errorf("compiling %s/%s: %w", prog, input, err)
			return
		}
		c.par = par
		c.prog = interp.SharedProgram(par.Mod)
	})
	return c, c.err
}

// run executes one admitted job through the speculative runtime.
func (s *Service) run(job *Job) {
	s.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	s.mu.Unlock()
	// The queue-wait phase closes the moment a runner picks the job up;
	// its span starts at the tracer's epoch (submission) and lasts what
	// the view's queued phase says.
	job.tracer.Emit(obs.Event{Kind: obs.KJobPhase, DurNS: int64(job.started.Sub(job.submitted)),
		Invocation: -1, Worker: -1, Iter: -1, Cause: obs.PhaseQueued})
	if s.holdRunner != nil {
		<-s.holdRunner
	}
	s.inflight.Add(1)
	s.mInflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.mInflight.Add(-1)
	}()

	c, err := s.compiledFor(job.Prog, job.Input)
	if err != nil {
		s.finish(job, runResult{err: err})
		return
	}
	rt, ret, err := core.Run(c.par, specrt.Config{
		Workers:     s.cfg.Workers,
		Program:     c.prog,
		Pool:        c.pool,
		Trace:       job.tracer,
		MisspecRate: s.cfg.MisspecRate,
		Seed:        s.cfg.Seed,
	})
	res := runResult{ret: ret, err: err}
	if rt != nil {
		res.out, res.rec = rt.Output(), rt.Record
	}
	s.finish(job, res)
}

// runResult carries one invocation's outcome into finish: the return
// value and output, the runtime's run record, and the terminal error if
// any.
type runResult struct {
	ret uint64
	out string
	rec specrt.Record
	err error
}

// finish moves a job to its terminal state and settles the accounting:
// tenant counters, latency histograms, the job's phase breakdown, and —
// when the job misspeculated, fell back, or failed — a flight-recorder
// postmortem.
func (s *Service) finish(job *Job, res runResult) {
	now := time.Now()
	// Only this runner writes started; a drained job never ran and has no
	// phases.
	var phases map[string]int64
	if !job.started.IsZero() {
		phases = res.rec.Stats.PhaseNS()
		phases[obs.PhaseQueued] = int64(job.started.Sub(job.submitted))
	}
	s.mu.Lock()
	if job.started.IsZero() {
		job.started = now
	}
	job.finished = now
	job.ret = res.ret
	job.output = res.out
	job.rec = res.rec
	job.phases = phases
	if job.trace != nil {
		job.traceTotal = job.trace.Total()
		job.traceDropped = job.trace.Dropped()
	}
	tc := s.tenants[job.Tenant]
	tc.Inflight--
	if res.err != nil {
		job.state = StateFailed
		job.errMsg = res.err.Error()
		tc.Failed++
	} else {
		job.state = StateDone
		tc.Completed++
	}
	wall := int64(now.Sub(job.submitted))
	queueWait := int64(job.started.Sub(job.submitted))
	traceTotal := job.traceTotal
	s.mu.Unlock()
	if res.err != nil {
		s.mFailed(job.Tenant).Inc()
	} else {
		s.mCompleted(job.Tenant).Inc()
	}
	s.mQueueWait.Observe(queueWait)
	s.mE2E.Observe(wall)
	s.mRuntime.Add(res.rec.Stats)
	s.mTraceEvents.Add(traceTotal)
	for _, ph := range obs.PhaseNames {
		if ns, ok := phases[ph]; ok {
			s.mPhase(job.Tenant, ph).Observe(ns)
		}
	}
	if reason := postmortemReason(res); reason != "" {
		s.recordPostmortem(job, res, reason)
	}
	close(job.done)
}

// postmortemReason classifies a finished job for the flight recorder, or
// returns "" for a clean run that needs no capture.
func postmortemReason(res runResult) string {
	switch {
	case errors.Is(res.err, ErrDraining):
		return "rejected"
	case res.err != nil:
		return "failed"
	case res.rec.Stats.SequentialFallbacks > 0:
		return "fallback"
	case res.rec.Stats.Misspecs > 0:
		return "misspec"
	}
	return ""
}

// postmortemTail bounds a postmortem's event snapshot to the trailing
// obs.DefaultPostmortemEvents.
func postmortemTail(events []obs.Event) []obs.Event {
	if n := len(events) - obs.DefaultPostmortemEvents; n > 0 {
		events = events[n:]
	}
	return events
}

// recordPostmortem snapshots a troubled job — trace tail, phase breakdown,
// misspeculation attribution — into the flight recorder.
func (s *Service) recordPostmortem(job *Job, res runResult, reason string) {
	pm := obs.Postmortem{
		JobID: job.ID, Tenant: job.Tenant, Prog: job.Prog, Input: job.Input,
		Reason: reason, UnixNS: time.Now().UnixNano(),
		Misspecs: res.rec.Stats.Misspecs, Fallbacks: res.rec.Stats.SequentialFallbacks,
		Phases: job.phases, Attribution: res.rec.Sites,
	}
	if res.err != nil {
		pm.Error = res.err.Error()
	}
	if job.trace != nil {
		pm.Events = postmortemTail(job.trace.Events())
		pm.TotalEvents = job.trace.Total()
		pm.DroppedEvents = job.trace.Dropped()
	}
	s.flight.Record(pm)
}

// recordRejection captures an admission rejection in the flight recorder:
// no job ID was ever assigned, but the tenant's refused work is still
// evidence worth keeping.
func (s *Service) recordRejection(tenant, prog, input string, err error) {
	s.flight.Record(obs.Postmortem{
		Tenant: tenant, Prog: prog, Input: input,
		Reason: "rejected", Error: err.Error(),
		UnixNS: time.Now().UnixNano(),
	})
}

// Trace returns a completed or in-flight job's retained trace events. The
// second result is false when the ID is unknown or the job was submitted
// with tracing disabled.
func (s *Service) Trace(id string) ([]obs.Event, bool) {
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil || job.trace == nil {
		return nil, false
	}
	return job.trace.Events(), true
}

// Flight returns the service's flight recorder.
func (s *Service) Flight() *obs.FlightRecorder { return s.flight }

// PoolView is one compiled program's pool traffic in a Snapshot.
type PoolView struct {
	// Program is the "prog/input" cache key.
	Program string `json:"program"`
	// Pool is the warmed worker pool's traffic counters.
	Pool specrt.WorkerPoolStats `json:"pool"`
}

// Snapshot is the service-level state document served at /service.
type Snapshot struct {
	// Draining is true once a graceful drain has begun.
	Draining bool `json:"draining"`
	// QueueDepth is the number of admitted-but-not-running jobs.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the queue's bound.
	QueueCap int `json:"queue_cap"`
	// Inflight is the number of invocations executing right now.
	Inflight int64 `json:"inflight"`
	// Jobs counts every job the service still remembers.
	Jobs int `json:"jobs"`
	// Tenants maps tenant name to its traffic counts.
	Tenants map[string]tenantCounts `json:"tenants"`
	// Programs lists the compiled-program cache with per-program warmed
	// pool traffic, sorted by cache key.
	Programs []PoolView `json:"programs"`
}

// Snapshot reports the service's current state.
func (s *Service) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := Snapshot{
		Draining:   s.draining,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Inflight:   s.inflight.Load(),
		Jobs:       len(s.jobs),
		Tenants:    map[string]tenantCounts{},
	}
	for name, tc := range s.tenants {
		sn.Tenants[name] = *tc
	}
	for key, c := range s.programs {
		sn.Programs = append(sn.Programs, PoolView{Program: key, Pool: c.pool.Snapshot()})
	}
	sort.Slice(sn.Programs, func(i, j int) bool {
		return sn.Programs[i].Program < sn.Programs[j].Program
	})
	return sn
}
