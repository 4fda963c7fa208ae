package service

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"privateer/internal/specrt"
)

// progNames are the five served benchmarks.
var progNames = []string{"052.alvinn", "dijkstra", "blackscholes", "swaptions", "enc-md5"}

// waitDone blocks until j is terminal (bounded). The timer is stopped on
// the way out: under go.mod's go 1.22 a time.After timer stays live until
// it fires, two minutes per job waited for.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	select {
	case <-j.Done():
	case <-timeout.C:
		t.Fatalf("job %s never finished", j.ID)
	}
}

// soloReference runs one job per program on an otherwise idle service and
// returns the per-program jobs whose ret, output and counters the
// concurrent runs must reproduce.
func soloReference(t *testing.T, s *Service) map[string]*Job {
	t.Helper()
	refs := map[string]*Job{}
	for _, name := range progNames {
		j, err := s.Submit("reference", name, "train")
		if err != nil {
			t.Fatalf("solo %s: %v", name, err)
		}
		waitDone(t, j)
		v := s.View(j)
		if v.State != StateDone {
			t.Fatalf("solo %s: %s (%s)", name, v.State, v.Error)
		}
		refs[name] = j
	}
	return refs
}

// checkCountersIsolated compares a job's Record with its solo reference
// job's where no job running beside it may move a count: every Stats count
// field except WarmSpawns (how much of a fleet the shared pool had warm
// depends on the neighbours) and the wall-clock *NS timings, and all of
// Sim. Only a run that does not misspeculate counts the same events every
// time, so it serves the clean pass.
func checkCountersIsolated(t *testing.T, s *Service, job, ref *Job) {
	t.Helper()
	s.mu.Lock()
	got, want := job.rec, ref.rec
	s.mu.Unlock()
	counts := func(st specrt.Stats) specrt.Stats {
		st.WarmSpawns = 0
		st.SpawnNS, st.JoinNS, st.CheckpointNS, st.PrivReadNS = 0, 0, 0, 0
		st.PrivWriteNS, st.WorkerBusyNS, st.RegionWallNS = 0, 0, 0
		st.ValidateNS, st.CommitNS, st.RecoveryNS = 0, 0, 0
		return st
	}
	if counts(got.Stats) != counts(want.Stats) {
		t.Errorf("%s/%s: Stats counts %+v, the solo run's %+v", job.Tenant, job.Prog,
			counts(got.Stats), counts(want.Stats))
	}
	if got.Sim != want.Sim {
		t.Errorf("%s/%s: Sim %+v, the solo run's %+v", job.Tenant, job.Prog, got.Sim, want.Sim)
	}
}

// TestConcurrentTenantsBitIdentical is the multi-tenant hammer: >= 32
// concurrent invocations of different programs over one shared Program cache
// and warmed worker pool, every tenant's output byte-identical to a solo run
// and no cross-tenant stats bleed (in the clean pass each job's counters
// equal its solo run's: checkCountersIsolated). It runs twice: clean, and
// with 5 % of iterations injected under a fixed seed, where pooled reclones
// from different masters run concurrently with recoveries and installs
// writing the masters' reowned trees in place. Run under -race in CI.
func TestConcurrentTenantsBitIdentical(t *testing.T) {
	tenantHammer(t, Config{Workers: 3, Concurrency: 8, QueueDepth: 64})
	tenantHammer(t, Config{Workers: 3, Concurrency: 8, QueueDepth: 64, MisspecRate: 0.05, Seed: 11})
}

// tenantHammer is one pass of TestConcurrentTenantsBitIdentical on a
// service configured by cfg.
func tenantHammer(t *testing.T, cfg Config) {
	s := New(cfg)
	defer s.Drain()
	refs := soloReference(t, s)

	// 8 tenants x 5 programs = 40 concurrent invocations; each tenant
	// runs every program once so any cross-tenant mixup is visible as a
	// wrong output.
	type sub struct {
		tenant string
		prog   string
		job    *Job
	}
	var subs []sub
	var misspecs int64
	for ten := 0; ten < 8; ten++ {
		for _, name := range progNames {
			tenant := fmt.Sprintf("tenant-%d", ten)
			j, err := s.Submit(tenant, name, "train")
			if err != nil {
				t.Fatalf("submit %s/%s: %v", tenant, name, err)
			}
			subs = append(subs, sub{tenant, name, j})
		}
	}
	for _, sb := range subs {
		waitDone(t, sb.job)
		v := s.View(sb.job)
		if v.State != StateDone {
			t.Fatalf("%s/%s: state %s (%s)", sb.tenant, sb.prog, v.State, v.Error)
		}
		ref := s.View(refs[sb.prog])
		if v.Ret != ref.Ret || v.Output != ref.Output {
			t.Errorf("misspec rate %g: %s/%s: output diverged from solo run (ret %d vs %d)",
				cfg.MisspecRate, sb.tenant, sb.prog, v.Ret, ref.Ret)
		}
		misspecs += v.Misspecs
		// Tracing is on by default; every job under the hammer must still
		// carry a usable trace (outputs above prove it changed nothing).
		if events, err := s.Trace(sb.job.ID); err != nil || len(events) == 0 {
			t.Errorf("%s/%s: no trace recorded under concurrency", sb.tenant, sb.prog)
		} else if len(v.PhaseNS) == 0 {
			t.Errorf("%s/%s: empty phase breakdown", sb.tenant, sb.prog)
		}
		checkPhaseLedger(t, s, sb.job)
		if cfg.MisspecRate == 0 {
			checkCountersIsolated(t, s, sb.job, refs[sb.prog])
		}
	}
	if (misspecs > 0) != (cfg.MisspecRate > 0) {
		t.Errorf("misspec rate %g: the hammer's jobs misspeculated %d times", cfg.MisspecRate, misspecs)
	}

	// No cross-tenant stats bleed: each tenant's accounting shows exactly
	// its own five jobs, all completed, none inflight.
	sn := s.Snapshot()
	for ten := 0; ten < 8; ten++ {
		tc, ok := sn.Tenants[fmt.Sprintf("tenant-%d", ten)]
		if !ok {
			t.Fatalf("tenant-%d missing from snapshot", ten)
		}
		if tc.Submitted != 5 || tc.Completed != 5 || tc.Failed != 0 || tc.Inflight != 0 {
			t.Errorf("tenant-%d counts bled: %+v", ten, tc)
		}
	}

	// The warmed pool must actually have been reused across invocations.
	var reuses int64
	for _, pv := range sn.Programs {
		reuses += pv.Pool.Reuses
	}
	if reuses == 0 {
		t.Error("no warmed-pool reuse across 45 invocations")
	}
}

// waitRunning polls until j has left the queue.
func waitRunning(t *testing.T, s *Service, j *Job) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.View(j).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: the in-flight invocation completes, still-queued jobs
// fail with ErrDraining, and later submissions are refused.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1, QueueDepth: 16})
	// Pin the first job in flight so the queue behind it is deterministic.
	hold := make(chan struct{})
	s.holdRunner = hold
	first, err := s.Submit("t0", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, first)
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit("t0", "dijkstra", "train")
		if err != nil {
			t.Fatalf("queued %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	deadline := time.Now().Add(time.Minute)
	for !s.Snapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("drain never completed")
	}

	if v := s.View(first); v.State != StateDone {
		t.Fatalf("in-flight job did not complete: %s (%s)", v.State, v.Error)
	}
	for i, j := range queued {
		v := s.View(j)
		if v.State != StateFailed || v.Error != ErrDraining.Error() {
			t.Fatalf("queued job %d: state %s error %q, want drain rejection", i, v.State, v.Error)
		}
	}
	if _, err := s.Submit("t0", "dijkstra", "train"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	sn := s.Snapshot()
	if !sn.Draining {
		t.Fatal("snapshot does not report draining")
	}
}

// TestAdmissionControl covers the typed rejections: unknown programs,
// per-tenant quotas, and queue-full backpressure.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1, QueueDepth: 1, TenantInflight: 2})
	hold := make(chan struct{})
	s.holdRunner = hold
	defer func() {
		close(hold)
		s.Drain()
	}()

	var unknown *UnknownProgramError
	if _, err := s.Submit("t", "no-such-prog", "train"); !errors.As(err, &unknown) {
		t.Fatalf("unknown program: %v", err)
	}
	if _, err := s.Submit("t", "dijkstra", "no-such-input"); !errors.As(err, &unknown) {
		t.Fatalf("unknown input: %v", err)
	}

	// Fill the tenant's quota: one pinned in flight plus one queued. Wait
	// for the runner to pick up the first job so the second lands in the
	// (depth-1) queue, not a race.
	busy, err := s.Submit("quota-tenant", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, busy)
	if _, err := s.Submit("quota-tenant", "dijkstra", "train"); err != nil {
		t.Fatal(err)
	}
	var quota *QuotaError
	if _, err := s.Submit("quota-tenant", "dijkstra", "train"); !errors.As(err, &quota) {
		t.Fatalf("over-quota submit: %v", err)
	}
	// Another tenant is admitted on its own quota — but the queue (depth
	// 1) already holds the first tenant's waiting job.
	var full *QueueFullError
	if _, err := s.Submit("other-tenant", "dijkstra", "train"); !errors.As(err, &full) {
		t.Fatalf("queue-full submit: %v", err)
	}
}

// TestSnapshotDuringFirstCompile: GET /service may arrive while a
// program's first job is still compiling. Snapshot reads each entry's
// pool under s.mu only, so the pool must exist from the moment the entry
// is inserted; writing it inside once.Do would race (run with -race).
func TestSnapshotDuringFirstCompile(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1})
	defer s.Drain()
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	j, err := s.Submit("t", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	close(stop)
	<-polled
	if v := s.View(j); v.State != StateDone {
		t.Fatalf("job: %s (%s)", v.State, v.Error)
	}
	sn := s.Snapshot()
	if len(sn.Programs) != 1 || sn.Programs[0].Program != "dijkstra/train" {
		t.Errorf("snapshot programs = %+v, want the one compiled pair", sn.Programs)
	}
}

// TestPricedOutJobRunsInOrder: on the default fleet the compile prices
// every hot loop of dijkstra/train slower speculated than in order, so the
// job runs untransformed on the master: no region invocation, the
// reference's return value and output byte for byte, and a rejection
// reason that names both prices.
func TestPricedOutJobRunsInOrder(t *testing.T) {
	s := New(Config{})
	defer s.Drain()
	job, err := s.Submit("t", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	v := s.View(job)
	if v.State != StateDone {
		t.Fatalf("job %s (%s)", v.State, v.Error)
	}
	p, in, err := lookup("dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	if ret, out := p.Reference(in); v.Ret != ret || v.Output != out {
		t.Errorf("ret %d, output %q; the reference's %d, %q", v.Ret, v.Output, ret, out)
	}
	if v.Invocations != 0 {
		t.Errorf("%d region invocations, want 0", v.Invocations)
	}
	c := job.c // compiled when the job ran
	if len(c.par.Regions) != 0 {
		t.Fatalf("%d regions selected", len(c.par.Regions))
	}
	hottest := c.par.Reports[0]
	var w int
	var spec, seq int64
	if _, err := fmt.Sscanf(hottest.Reason, "unprofitable at %d workers: %d steps speculated vs %d in order",
		&w, &spec, &seq); err != nil || w != DefaultWorkers || spec <= seq {
		t.Errorf("loop %s rejected for %q", hottest.Loop, hottest.Reason)
	}
}
