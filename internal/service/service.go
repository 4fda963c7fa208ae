package service

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
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
	// DefaultRetainJobs bounds the finished jobs the service keeps for
	// /poll and /jobs/{id}/trace: sixteen full queues' worth.
	DefaultRetainJobs = 16 * DefaultQueueDepth
)

// recycleEvents is the largest trace buffer, in events, an evicted job
// hands on to the next job of its (program, input). A clean train job's
// ring stays under it (052.alvinn emits 85 events, a job whose loops the
// compile priced out one), so in steady state a job allocates no ring; the
// buffer of a long or misspeculating job is let go.
const recycleEvents = 256

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

// UnknownJobError answers a lookup of a job ID the service never issued.
type UnknownJobError struct {
	// ID is the looked-up job ID.
	ID string
}

// Error names the unknown ID.
func (e *UnknownJobError) Error() string { return "no job " + e.ID }

// GoneError answers a lookup of a job ID the service issued but no longer
// keeps: the job finished and more than Config.RetainJobs jobs finished
// after it.
type GoneError struct {
	// ID is the looked-up job ID.
	ID string
	// Retained is the service's Config.RetainJobs.
	Retained int
}

// Error names the ID and the retention bound it aged out of.
func (e *GoneError) Error() string {
	return fmt.Sprintf("job %s is gone: only the %d most recently finished jobs are kept", e.ID, e.Retained)
}

// ErrUntraced answers a trace lookup of a job submitted with tracing
// disabled.
var ErrUntraced = errors.New("job was submitted with tracing disabled")

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
	// RetainJobs bounds the finished (done or failed) jobs the service
	// keeps (0 selects DefaultRetainJobs). Past it the oldest finished job
	// is forgotten, and lookups of its ID answer GoneError; queued and
	// running jobs are always kept.
	RetainJobs int
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

	// c is the job's program/input cache entry, looked up at Submit.
	c *compiled

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

// progKey names one (program, input) pair.
type progKey struct{ prog, input string }

// compiled is the shared state for one (program, input) pair: the
// parallelized module, the one decoded Program every job of the pair
// shares, the warmed worker pool every invocation of it draws from, and
// the trace collectors its evicted jobs left.
type compiled struct {
	key  progKey
	pool *specrt.WorkerPool // set at insertion, before once runs
	// rings holds reset collectors of the pair's evicted jobs for its next
	// Submits, never more of them than traced, the pair's kept jobs that
	// hold one (both guarded by Service.mu). Jobs of one pair emit alike,
	// so a recycled ring is about the size its next job grows it to, and
	// the pair's idle rings hold no more than its kept jobs' rings do.
	rings  []*obs.Collector
	traced int
	once   sync.Once
	par    *core.Parallelized
	prog   *interp.Program
	err    error
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
	programs map[progKey]*compiled
	// finished holds the kept finished jobs in completion order: a ring of
	// up to RetainJobs entries whose oldest is at oldest once it has
	// filled.
	finished []*Job
	oldest   int

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
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = DefaultTraceCapacity
	}
	s := &Service{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		tenants:  map[string]*tenantCounts{},
		programs: map[progKey]*compiled{},
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
	job.c = s.entry(prog, input)
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.mRejected("queue_full").Inc()
		s.recordRejection(tenant, prog, input, &QueueFullError{Depth: cap(s.queue)})
		return nil, &QueueFullError{Depth: cap(s.queue)}
	}
	// Tracing is per job and on by default, into a ring an evicted job of
	// the same pair left when there is one. The runner that took the job
	// reads its tracer only under s.mu (run), or after a Drain that had to
	// wait for it. The tracer's timebase starts here, so queue wait is the
	// first thing the trace sees; the job ID doubles as the trace ID.
	if s.cfg.TraceCapacity > 0 {
		c := job.c
		if n := len(c.rings); n > 0 {
			job.trace = c.rings[n-1]
			c.rings[n-1] = nil
			c.rings = c.rings[:n-1]
		} else {
			job.trace = obs.NewCollector(s.cfg.TraceCapacity)
		}
		job.tracer = obs.NewTracer(job.trace)
		c.traced++
	}
	job.ID = jobID(s.nextID.Add(1))
	s.jobs[job.ID] = job
	tc.Submitted++
	tc.Inflight++
	s.mu.Unlock()
	s.mSubmitted(tenant).Inc()
	return job, nil
}

// jobID formats the n-th issued job ID.
func jobID(n int64) string { return fmt.Sprintf("j%06d", n) }

// Job returns the job with the given ID, or UnknownJobError for an ID
// never issued and GoneError for one whose job has aged out.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupJob(id)
}

// lookupJob is Job with s.mu held. IDs are issued in sequence under s.mu,
// so an issued ID missing from s.jobs names an evicted job.
func (s *Service) lookupJob(id string) (*Job, error) {
	if j := s.jobs[id]; j != nil {
		return j, nil
	}
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err == nil && n >= 1 && n <= s.nextID.Load() && jobID(n) == id {
		return nil, &GoneError{ID: id, Retained: s.cfg.RetainJobs}
	}
	return nil, &UnknownJobError{ID: id}
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

// entry returns the cache entry for a program/input pair, inserting it on
// first use. Called with s.mu held.
func (s *Service) entry(prog, input string) *compiled {
	key := progKey{prog, input}
	c := s.programs[key]
	if c == nil {
		// The pool needs nothing from the compile, so it is built with
		// the entry under s.mu: Snapshot reads it while once.Do may
		// still be compiling.
		c = &compiled{key: key, pool: specrt.NewWorkerPool(s.cfg.PoolSlots)}
		s.programs[key] = c
	}
	return c
}

// compile compiles c's pair on first use and returns the compile's error.
func (s *Service) compile(c *compiled) error {
	prog, input := c.key.prog, c.key.input
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
	return c.err
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

	c := job.c
	if err := s.compile(c); err != nil {
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
	// Nothing emits into the ring any more, and no eviction can take it
	// before retain below, so it is read here without s.mu.
	reason := postmortemReason(res)
	var tail []obs.Event
	var traceTotal, traceDropped int64
	if job.trace != nil {
		traceTotal, traceDropped = job.trace.Total(), job.trace.Dropped()
		if reason != "" {
			tail = postmortemTail(job.trace.Events())
		}
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
	job.traceTotal, job.traceDropped = traceTotal, traceDropped
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
	s.retain(job)
	s.mu.Unlock()
	if res.err != nil {
		s.mFailed(job.Tenant).Inc()
	} else {
		s.mCompleted(job.Tenant).Inc()
	}
	s.mQueueWait.Observe(queueWait)
	s.mE2E.Observe(wall)
	s.mRuntime.Add(&res.rec.Stats)
	s.mTraceEvents.Add(traceTotal)
	for _, ph := range obs.PhaseNames {
		if ns, ok := phases[ph]; ok {
			s.mPhase(job.Tenant, ph).Observe(ns)
		}
	}
	if reason != "" {
		s.recordPostmortem(job, res, reason, tail)
	}
	close(job.done)
}

// retain keeps job, just finished, among the finished jobs and evicts the
// oldest of them once more than RetainJobs are kept: its ID leaves s.jobs
// and its trace collector, reset, goes back to its pair's rings unless
// that would leave the pair more idle rings than kept traced jobs. A trace
// reader copies events under s.mu, so none sees a recycled ring. Called
// with s.mu held.
func (s *Service) retain(job *Job) {
	if len(s.finished) < s.cfg.RetainJobs {
		s.finished = append(s.finished, job)
		return
	}
	old := s.finished[s.oldest]
	s.finished[s.oldest] = job
	s.oldest = (s.oldest + 1) % len(s.finished)
	delete(s.jobs, old.ID)
	if ring := old.trace; ring != nil {
		old.trace, old.tracer = nil, nil
		c := old.c
		c.traced--
		if len(c.rings) < c.traced {
			ring.Reset(recycleEvents)
			c.rings = append(c.rings, ring)
		} else {
			clear(c.rings[c.traced:])
			c.rings = c.rings[:c.traced]
		}
	}
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

// recordPostmortem files a troubled job — tail, the trace tail finish
// copied, and the ring's counts, phase breakdown, misspeculation
// attribution — in the flight recorder.
func (s *Service) recordPostmortem(job *Job, res runResult, reason string, tail []obs.Event) {
	pm := obs.Postmortem{
		JobID: job.ID, Tenant: job.Tenant, Prog: job.Prog, Input: job.Input,
		Reason: reason, UnixNS: time.Now().UnixNano(),
		Misspecs: res.rec.Stats.Misspecs, Fallbacks: res.rec.Stats.SequentialFallbacks,
		Phases: job.phases, Attribution: res.rec.Sites,
		Events: tail, TotalEvents: job.traceTotal, DroppedEvents: job.traceDropped,
	}
	if res.err != nil {
		pm.Error = res.err.Error()
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

// Trace returns a kept job's trace events, finished or in flight: the
// errors are Job's, and ErrUntraced for a job submitted with tracing
// disabled. The events are copied under s.mu, which eviction holds, so
// they are the job's own even when it is evicted as they are read.
func (s *Service) Trace(id string) ([]obs.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.lookupJob(id)
	if err != nil {
		return nil, err
	}
	if job.trace == nil {
		return nil, ErrUntraced
	}
	return job.trace.Events(), nil
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
	// Jobs counts the jobs the service keeps: queued, running, and up to
	// RetainJobs finished ones.
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
		sn.Programs = append(sn.Programs, PoolView{Program: key.prog + "/" + key.input, Pool: c.pool.Snapshot()})
	}
	sort.Slice(sn.Programs, func(i, j int) bool {
		return sn.Programs[i].Program < sn.Programs[j].Program
	})
	return sn
}
