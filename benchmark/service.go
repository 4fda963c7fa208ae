package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/core"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/service"
)

const (
	// serviceWorkers is the fleet the service gives each job when its
	// Config is left at the shipped defaults.
	serviceWorkers = service.DefaultWorkers
	// retrySleep is how long a tenant backs off after a 429-class refusal.
	retrySleep = time.Millisecond
	// probeRuns is how many direct runs per program the traced pass makes
	// to read the runtime's own counters, which a JobView does not carry.
	probeRuns = 20
	// httpJobs is the number of jobs the HTTP probe pushes through a real
	// listener, one at a time on one keep-alive connection.
	httpJobs = 200
)

// jobObs is what a tenant saw of one job.
type jobObs struct {
	row  int
	e2e  time.Duration // before Submit to after <-Done()
	lag  time.Duration // previous job seen done to this Submit
	view service.JobView
}

// serviceShort: a closed loop of NumCPU tenants, each submitting its
// next train-input job only after the previous one is done, through a
// service left at its shipped defaults.
type serviceShort struct {
	names []string
	refs  []reference
	svc   *service.Service
}

func newServiceShort() *serviceShort {
	s := &serviceShort{}
	for _, p := range progs.All() {
		ret, out := p.Reference(p.Train)
		s.names = append(s.names, p.Name)
		s.refs = append(s.refs, reference{ret: ret, out: out, float: p.FloatResult})
	}
	return s
}

// submit admits one job for tenant, backing off and retrying on a typed
// 429-class refusal; each refusal counts as a retry.
func (s *serviceShort) submit(tenant string, row int, retries *atomic.Int64) (*service.Job, error) {
	for {
		job, err := s.svc.Submit(tenant, s.names[row], "train")
		var full *service.QueueFullError
		var quota *service.QuotaError
		if errors.As(err, &full) || errors.As(err, &quota) {
			retries.Add(1)
			time.Sleep(retrySleep)
			continue
		}
		return job, err
	}
}

// checkView checks a finished job's snapshot against its reference.
func (s *serviceShort) checkView(v service.JobView, row int) error {
	if v.State != service.StateDone {
		return fmt.Errorf("state %s: %s", v.State, v.Error)
	}
	return s.refs[row].check(v.Ret, v.Output)
}

// setup starts a fresh service and sends one warm-up job per program,
// which takes the cold compiledFor path.
func (s *serviceShort) setup(h *harness) error {
	s.svc = service.New(service.Config{})
	var retries atomic.Int64
	for row := range s.names {
		t0 := time.Now()
		job, err := s.submit("warmup", row, &retries)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s.names[row], err)
		}
		<-job.Done()
		h.setup.add("service.first_job", row, float64(time.Since(t0)))
		h.attempted++
		if err := s.checkView(s.svc.View(job), row); err != nil {
			h.fail("warm-up %s: %v", s.names[row], err)
		}
	}
	return nil
}

// loopTotals is what one closed-loop section adds up to.
type loopTotals struct {
	obs     [][]jobObs // per tenant
	window  time.Duration
	retries int64
}

// loop runs the closed loop until the budget (time, or a job count) is
// spent. Each tenant draws its jobs as seeded shuffles of the five
// programs, so the mix stays even. recs, when given, holds one recorder
// per tenant.
func (s *serviceShort) loop(h *harness, b budget, recs []*recorder) loopTotals {
	tenants := runtime.NumCPU()
	tot := loopTotals{obs: make([][]jobObs, tenants)}
	var claimed, retries atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < tenants; t++ {
		var rec *recorder
		if recs != nil {
			rec = recs[t]
		}
		wg.Add(1)
		go func(t int, rec *recorder) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.opt.seed*131 + int64(t)))
			tenant := fmt.Sprintf("tenant%d", t)
			var order []int
			lastDone := time.Now()
			for n := 0; ; n++ {
				if b.ops > 0 {
					if claimed.Add(1) > int64(b.ops) {
						return
					}
				} else if b.done(n, time.Since(start)) {
					return
				}
				if len(order) == 0 {
					order = rng.Perm(len(s.names))
				}
				row := order[0]
				order = order[1:]

				root := rec.begin("op."+s.names[row], n)
				t0 := time.Now()
				sp := rec.begin("service.submit", n)
				job, err := s.submit(tenant, row, &retries)
				rec.end(sp)
				if err != nil {
					rec.end(root)
					tot.obs[t] = append(tot.obs[t], jobObs{row: row, view: service.JobView{Error: err.Error()}})
					continue
				}
				sp = rec.begin("service.wait", n)
				<-job.Done()
				rec.end(sp)
				done := time.Now()
				sp = rec.begin("service.view", n)
				v := s.svc.View(job)
				rec.end(sp)
				rec.end(root)
				tot.obs[t] = append(tot.obs[t], jobObs{row: row, e2e: done.Sub(t0), lag: t0.Sub(lastDone), view: v})
				lastDone = done
			}
		}(t, rec)
	}
	wg.Wait()
	tot.window = time.Since(start)
	tot.retries = retries.Load()
	return tot
}

// file checks every observed job and files its times under its row.
func (s *serviceShort) file(h *harness, tot loopTotals, into *samples) (jobs, failed int) {
	for _, tenant := range tot.obs {
		for _, o := range tenant {
			jobs++
			h.attempted++
			if err := s.checkView(o.view, o.row); err != nil {
				failed++
				h.fail("%s job %s: %v", s.names[o.row], o.view.ID, err)
				continue
			}
			v := o.view
			into.add("op", o.row, float64(o.e2e))
			into.add("lag", o.row, float64(o.lag))
			into.add("cycle", o.row, float64(o.e2e+o.lag))
			into.add("queue", o.row, float64(v.QueueNS))
			into.add("run", o.row, float64(v.WallNS))
			into.add("overhead", o.row, float64(int64(o.e2e)-v.QueueNS-v.WallNS))
			into.add("events", o.row, float64(v.TraceEvents))
			into.add("dropped", o.row, float64(v.TraceDropped))
			for _, phase := range obs.PhaseNames {
				into.add("phase."+phase, o.row, float64(v.PhaseNS[phase]))
			}
		}
	}
	return jobs, failed
}

func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runService(h *harness) error {
	s := newServiceShort()
	rows := len(s.names)
	h.setup = newSamples(rows)
	for h.opt.moreSetup(h.setupS) {
		if s.svc != nil {
			s.svc.Drain() // the previous repetition's, outside the clock
		}
		t0 := time.Now()
		if err := s.setup(h); err != nil {
			return err
		}
		h.setupS = append(h.setupS, time.Since(t0).Seconds())
	}
	defer s.svc.Drain()
	if h.opt.corruptRef {
		s.refs[0] = s.refs[0].corrupted()
	}

	h.timed = newSamples(rows)
	var before, after runtime.MemStats
	heap0 := heapAfterGC()
	runtime.ReadMemStats(&before)
	tot := s.loop(h, h.opt.timedBudget(), nil)
	runtime.ReadMemStats(&after)
	heap1 := heapAfterGC()
	jobs, failed := s.file(h, tot, h.timed)

	v, n := h.opTime()
	h.emit("op_ms", v/1e6, n)
	v, n = h.timed.geo("op")
	h.emit("job_ms", v/1e6, n)
	h.emit("ops_per_s", h.typicalRate("cycle", runtime.NumCPU(), jobs, failed), jobs)
	h.emit("jobs_per_s", float64(jobs-failed)/tot.window.Seconds(), jobs)
	h.emit("alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(jobs), jobs)
	h.emit("retained_kb_per_op", (float64(heap1)-float64(heap0))/1024/float64(jobs), jobs)
	if !h.opt.trace {
		return nil
	}

	var p99 []float64
	for _, o := range h.timed.v["op"] {
		p99 = append(p99, percentile(o, 99))
	}
	h.emit("service.job_p99_ms", sumOf(p99)/float64(len(p99))/1e6, n)
	h.emit("service.retries", float64(tot.retries), jobs)
	v, n = h.timed.mean("lag")
	h.emit("harness.generator_lag_us", v/1e3, n)
	v, n = h.setup.mean("service.first_job")
	h.emit("service.first_job_ms", v/1e6, n)

	h.traced = newSamples(rows)
	epoch := time.Now()
	recs := make([]*recorder, runtime.NumCPU())
	for t := range recs {
		recs[t] = newRecorder(epoch, t+1)
	}
	h.recs = append(h.recs, recs...)
	tot = s.loop(h, h.opt.tracedBudget(), recs)
	s.file(h, tot, h.traced)
	for t, rec := range recs {
		seen := tot.obs[t]
		foldSpans(rec, func(op int) int { return seen[op].row }, h.traced)
	}
	h.traceOverhead()
	t := h.traced
	for metric, name := range map[string]string{
		"service.submit_us":   "service.submit",
		"service.view_us":     "service.view",
		"service.queue_us":    "queue",
		"service.run_us":      "run",
		"service.overhead_us": "overhead",
	} {
		v, n := t.mean(name)
		h.emit(metric, v/1e3, n)
	}
	v, n = t.mean("events")
	h.emit("obs.trace_events_per_job", v, n)
	v, n = t.mean("dropped")
	h.emit("obs.trace_dropped_per_job", v, n)
	for _, phase := range obs.PhaseNames {
		v, n := t.mean("phase." + phase)
		h.emit("service.phase_us."+phase, v/1e3, n)
	}
	var reuses, misses int64
	for _, pv := range s.svc.Snapshot().Programs {
		reuses += pv.Pool.Reuses
		misses += pv.Pool.Misses
	}
	h.emit("service.warm_spawn_ratio", float64(reuses)/float64(reuses+misses), int(reuses+misses))

	if err := s.probeRuntime(h); err != nil {
		return err
	}
	s.probeHTTP(h)
	return nil
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// probeRuntime runs each program directly, the way service.run does, to
// read the specrt, interp and vm counters behind a short job.
func (s *serviceShort) probeRuntime(h *harness) error {
	rec := newRecorder(time.Now(), 100)
	h.recs = append(h.recs, rec)
	rowOf := map[int]int{}
	id := 0
	for row, p := range progs.All() {
		cp, err := compileProgram(p, p.Train, h.traced, row)
		if err != nil {
			return err
		}
		for i := 0; i < probeRuns; i++ {
			rowOf[id] = row
			root := rec.begin("probe."+p.Name, id)
			sp := rec.begin("progs.build", id)
			mod := p.Build(p.Train)
			rec.end(sp)
			sp = rec.begin("interp.run_sequential", id)
			_, _, seqErr := core.RunSequential(mod)
			rec.end(sp)
			before := cp.pool.Snapshot()
			sp = rec.begin("specrt.new", id)
			rt := cp.newRT(cp.config(serviceWorkers))
			rec.end(sp)
			sp = rec.begin("specrt.run", id)
			ret, err := rt.Run()
			rec.end(sp)
			sp = rec.begin("harness.sample", id)
			sampleRuntime(h.traced, row, rt, cp, before)
			rec.end(sp)
			rec.end(root)
			h.attempted++
			if err == nil {
				err = seqErr
			}
			if err == nil {
				err = s.refs[row].check(ret, rt.Output())
			}
			if err != nil {
				h.fail("direct run of %s: %v", p.Name, err)
			}
			id++
		}
		probeVM(h.traced, row, p, p.Train)
	}
	foldSpans(rec, func(op int) int { return rowOf[op] }, h.traced)

	_, n := h.traced.medians("interp.steps_seq")
	h.emit("interp.steps_seq", h.traced.sum("interp.steps_seq"), n)
	v, n := h.traced.mean("interp.shared_program")
	h.emit("interp.shared_program_us", v/1e3, n)
	_, n = h.traced.medians("interp.run_sequential")
	seqNS := h.traced.sum("interp.run_sequential") / h.traced.sum("interp.steps_seq")
	h.emit("interp.seq_ns_per_step", seqNS, n)
	v, n = h.traced.mean("progs.build")
	h.emit("progs.build_ms", v/1e6, n)
	rows := make([]int, len(s.names))
	for i := range rows {
		rows[i] = i
	}
	reportRuntime(h, rows, seqNS)
	reportVM(h)
	return nil
}

// probeHTTP times sequential round trips on one keep-alive loopback
// connection to a real obs.Server with the service mounted.
func (s *serviceShort) probeHTTP(h *harness) {
	svc := service.New(service.Config{})
	defer svc.Drain()
	srv := obs.NewServer(nil)
	svc.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		// The ledger's HTTP rows are diagnostics: without a loopback
		// listener they stay empty and the run goes on.
		fmt.Fprintln(os.Stderr, "benchmark: HTTP probe skipped:", err)
		return
	}
	defer srv.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	roundTrip := func(method, url string, body []byte) ([]byte, time.Duration, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%s %s: %s", method, url, resp.Status)
		}
		return data, d, err
	}
	one := func(row int) error {
		body, _ := json.Marshal(service.SubmitRequest{Tenant: "http", Prog: s.names[row], Input: "train"})
		data, d, err := roundTrip(http.MethodPost, "http://"+addr+"/submit", body)
		if err != nil {
			return err
		}
		h.traced.add("http.submit", row, float64(d))
		var v service.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		id := v.ID
		for v.State != service.StateDone && v.State != service.StateFailed {
			data, d, err = roundTrip(http.MethodGet, "http://"+addr+"/poll?id="+id, nil)
			if err != nil {
				return err
			}
			h.traced.add("http.poll", row, float64(d))
			if err := json.Unmarshal(data, &v); err != nil {
				return err
			}
		}
		if _, d, err = roundTrip(http.MethodGet, "http://"+addr+"/jobs/"+id+"/trace", nil); err != nil {
			return err
		}
		h.traced.add("http.trace", row, float64(d))
		return s.checkView(v, row)
	}
	for i := 0; i < httpJobs; i++ {
		row := i % len(s.names)
		h.attempted++
		if err := one(row); err != nil {
			h.fail("HTTP job %d (%s): %v", i, s.names[row], err)
		}
	}
	for metric, name := range map[string]string{
		"service.http_submit_us": "http.submit",
		"service.http_poll_us":   "http.poll",
		"service.http_trace_us":  "http.trace",
	} {
		v, n := h.traced.mean(name)
		h.emit(metric, v/1e3, n)
	}
}
