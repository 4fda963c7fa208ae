package service

import (
	"sort"
	"testing"
	"time"
)

// traceOverheadBarPct is the acceptance bar for per-job tracing on the
// service's job path (ROADMAP: overhead stays measured and gated, < 5 %).
const traceOverheadBarPct = 5

// BenchmarkJobTraceOverhead measures what the always-on per-job trace costs
// a job, and fails above traceOverheadBarPct: CI's "Benchmark smoke" step
// (-bench=. -benchtime=1x) is the gate, `go test` alone does not run it.
//
// The same serial dijkstra/train job stream goes through two real services,
// one with per-job tracing disabled (TraceCapacity -1) and one with the
// default ring. Each of 16 iterations runs a batch of 6 jobs through both
// legs back to back, order flipping every iteration, and the estimate is the
// median of the per-pair batch-mean deltas over the median baseline:
// batching averages out per-job scheduling jitter, which is far larger than
// the tracing cost, pairing cancels the slow host drift the two batches
// share, and serial submission keeps queue wait out of the measurement.
func BenchmarkJobTraceOverhead(b *testing.B) {
	const (
		batches      = 16
		jobsPerBatch = 6
	)
	mk := func(traceCap int) *Service {
		return New(Config{Workers: 4, Concurrency: 1, TraceCapacity: traceCap, Seed: 0xC0FFEE})
	}
	untraced, traced := mk(-1), mk(0)
	defer untraced.Drain()
	defer traced.Drain()
	// batch returns the mean wall ns of n serial jobs through svc.
	batch := func(svc *Service, n int) float64 {
		var total time.Duration
		for j := 0; j < n; j++ {
			t0 := time.Now()
			job, err := svc.Submit("bench", "dijkstra", "train")
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
			total += time.Since(t0)
			if v := svc.View(job); v.State != StateDone {
				b.Fatalf("job %s %s: %s", job.ID, v.State, v.Error)
			}
		}
		return float64(total.Nanoseconds()) / float64(n)
	}
	// Untimed warmups absorb program compilation and pool warming, which
	// would otherwise land entirely on each leg's first batch.
	batch(untraced, 2)
	batch(traced, 2)
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		baseNS := make([]float64, batches)
		deltaNS := make([]float64, batches)
		for k := range baseNS {
			var base, withTrace float64
			if k%2 == 0 {
				base = batch(untraced, jobsPerBatch)
				withTrace = batch(traced, jobsPerBatch)
			} else {
				withTrace = batch(traced, jobsPerBatch)
				base = batch(untraced, jobsPerBatch)
			}
			baseNS[k], deltaNS[k] = base, withTrace-base
		}
		pct = 100 * median(deltaNS) / median(baseNS)
	}
	b.ReportMetric(pct, "trace-overhead-%")
	if pct > traceOverheadBarPct {
		b.Fatalf("per-job tracing costs %.2f%% of a job, bar is %d%%", pct, traceOverheadBarPct)
	}
}

// median returns the middle value of xs (mean of the middle two for even
// lengths), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
