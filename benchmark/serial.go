package main

import (
	"runtime"
	"time"
)

// serialWorkload is a workload whose ops run one after another on the
// calling goroutine: compile_cold, region_ref and region_recover.
type serialWorkload interface {
	// rows names the op kinds; one pass runs one op on every row.
	rows() []string
	// setup builds, from scratch, everything the ops need.
	setup(h *harness) error
	// op runs one op and returns the time the system under test took and
	// a check of the op's output against its reference. With a recorder
	// it also records a span around every call into a layer and samples
	// the layer counts into h.traced.
	op(h *harness, row, pass int, rec *recorder, id int) (time.Duration, func() error)
	// report emits the workload's own metrics.
	report(h *harness)
}

// sectionTotals is what one section of passes adds up to.
type sectionTotals struct {
	ops    int
	failed int
	alloc  uint64 // bytes allocated inside ops, checks excluded
}

// runSection runs passes until the budget is spent. Rows are interleaved
// round-robin in a seeded order whose start rotates every pass, so that
// drift hits every row equally. Outputs are checked after each pass's
// ops, outside both the op times and the allocation count.
func runSection(h *harness, w serialWorkload, b budget, into *samples, rec *recorder) sectionTotals {
	names := w.rows()
	order := h.rng.Perm(len(names))
	var tot sectionTotals
	var before, after runtime.MemStats
	checks := make([]func() error, len(names))
	start := time.Now()
	for pass := 0; !b.done(pass, time.Since(start)); pass++ {
		runtime.ReadMemStats(&before)
		for i := range names {
			row := order[(i+pass)%len(names)]
			id := tot.ops
			root := rec.begin("op."+names[row], id)
			d, check := w.op(h, row, pass, rec, id)
			if rec != nil {
				// A traced op checks inside its own span, so that the
				// span tree accounts for all of the op's time.
				c := rec.begin("harness.check", id)
				err := check()
				rec.end(c)
				check = func() error { return err }
			}
			rec.end(root)
			checks[row] = check
			into.add("op", row, float64(d))
			tot.ops++
		}
		runtime.ReadMemStats(&after)
		tot.alloc += after.TotalAlloc - before.TotalAlloc
		for row, check := range checks {
			h.attempted++
			if err := check(); err != nil {
				tot.failed++
				h.fail("%s pass %d: %v", names[row], pass, err)
			}
		}
	}
	return tot
}

// foldSpans turns the recorder's layer spans into samples: per op and
// span name, the summed duration in nanoseconds, filed under the op's
// row. Root spans are the ops themselves and are skipped.
func foldSpans(rec *recorder, rowOf func(op int) int, into *samples) {
	type key struct {
		op   int
		name string
	}
	sums := map[key]int64{}
	var keys []key
	for _, s := range rec.spans {
		if s.Parent < 0 {
			continue
		}
		k := key{s.Op, s.Name}
		if _, seen := sums[k]; !seen {
			keys = append(keys, k)
		}
		sums[k] += s.End - s.Start
	}
	for _, k := range keys {
		into.add(k.name, rowOf(k.op), float64(sums[k]))
	}
}

// runSerial is the whole run of a serial workload: repeated set-up with a
// warm-up pass, the timed section with tracing off, then the traced pass.
func runSerial(h *harness, w serialWorkload) error {
	rows := len(w.rows())
	h.setup = newSamples(rows)
	for h.opt.moreSetup(h.setupS) {
		t0 := time.Now()
		if err := w.setup(h); err != nil {
			return err
		}
		runSection(h, w, budget{ops: 1}, newSamples(rows), nil)
		h.setupS = append(h.setupS, time.Since(t0).Seconds())
	}

	h.timed = newSamples(rows)
	runtime.GC()
	tot := runSection(h, w, h.opt.timedBudget(), h.timed, nil)
	h.emit("ops_per_s", h.typicalRate("op", 1, tot.ops, tot.failed), tot.ops)
	h.emit("alloc_kb_per_op", float64(tot.alloc)/1024/float64(tot.ops), tot.ops)

	if h.opt.trace {
		h.traced = newSamples(rows)
		rec := newRecorder(time.Now(), 1)
		h.recs = append(h.recs, rec)
		runtime.GC()
		// runSection numbers ops from 0 and visits rows in the order it
		// drew, so the op -> row map is read back from the root spans.
		runSection(h, w, h.opt.tracedBudget(), h.traced, rec)
		rowOfOp := map[int]int{}
		index := map[string]int{}
		for i, n := range w.rows() {
			index["op."+n] = i
		}
		for _, s := range rec.spans {
			if s.Parent < 0 {
				rowOfOp[s.Op] = index[s.Name]
			}
		}
		foldSpans(rec, func(op int) int { return rowOfOp[op] }, h.traced)
		h.traceOverhead()
	}
	w.report(h)
	return nil
}
