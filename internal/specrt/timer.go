package specrt

import (
	"time"

	"privateer/internal/obs"
)

// spanTimer times one section of the runtime. The clock is read once at
// each end and both accounts of the section — its Stats timing field and its
// trace event — are written from those two readings, so a kind's DurNS
// summed over a run's events equals the Stats field exactly (the "Time
// accounting" table in ARCHITECTURE.md lists the pairs). Besides this file
// only worker.Private reads the clock, around one privacy check in
// privTimeEvery.
type spanTimer struct{ t0 time.Time }

// startTimer opens a timed section.
func startTimer() spanTimer { return spanTimer{time.Now()} }

// stop closes the section and adds its duration to *ns, the section's
// Stats field; when tr is on, ev is emitted with TimeNS and DurNS taken
// from the same two instants. A section with no event kind of its own
// passes a nil tracer.
func (s spanTimer) stop(ns *int64, tr *obs.Tracer, ev obs.Event) {
	d := int64(time.Since(s.t0))
	*ns += d
	if tr.On() {
		ev.TimeNS, ev.DurNS = tr.At(s.t0), d
		tr.Emit(ev)
	}
}
