package obs

import "slices"

// Job lifecycle phases. The region service decomposes a job's wall time the
// way the paper's cost model decomposes speculation overhead: privatization
// (spawn), execution (run), validation, merge, commit, and recovery — plus
// the service-side queue wait the runtime itself cannot see. Each phase is
// derived from the kinds of events the runtime already emits, so the
// breakdown needs no second instrumentation layer.

const (
	// PhaseQueued is the time between job submission and a runner picking
	// the job up (KJobPhase events with Cause "queued").
	PhaseQueued = "queued"
	// PhaseSpawn covers worker privatization: address-space clone or warm
	// reclone plus interpreter setup (KSpawn fleet spans).
	PhaseSpawn = "spawn"
	// PhaseRun covers speculative worker execution (KWorkerJoin busy spans).
	PhaseRun = "run"
	// PhaseValidate covers cross-interval privacy validation passes
	// (KValidate).
	PhaseValidate = "validate"
	// PhaseMerge covers worker state merges into checkpoints (KContribute).
	PhaseMerge = "merge"
	// PhaseCommit covers checkpoint installs and deferred-output commits
	// (KInstall, KCommit).
	PhaseCommit = "commit"
	// PhaseRecovery covers sequential re-execution after misspeculation and
	// whole-invocation sequential fallback (KRecovery, KSeqFallback).
	PhaseRecovery = "recovery"
)

// PhaseNames lists every job lifecycle phase in presentation order.
var PhaseNames = []string{
	PhaseQueued, PhaseSpawn, PhaseRun,
	PhaseValidate, PhaseMerge, PhaseCommit, PhaseRecovery,
}

// PhaseOf maps an event to the lifecycle phase it contributes to, or ""
// when the event is outside the phase taxonomy (COW faults, TLB flushes,
// marks, and other micro-events remain visible in the raw trace but do not
// enter the phase breakdown).
func PhaseOf(ev Event) string {
	switch ev.Kind {
	case KJobPhase:
		return ev.Cause
	case KSpawn:
		return PhaseSpawn
	case KWorkerJoin:
		return PhaseRun
	case KValidate:
		return PhaseValidate
	case KContribute:
		return PhaseMerge
	case KInstall, KCommit:
		return PhaseCommit
	case KRecovery, KSeqFallback:
		return PhaseRecovery
	}
	return ""
}

// PhaseSpan aggregates every event of one phase within a job trace.
type PhaseSpan struct {
	// Phase is the lifecycle phase name.
	Phase string `json:"phase"`
	// Count is the number of contributing events.
	Count int64 `json:"count"`
	// NS is the summed duration of the contributing spans in nanoseconds.
	NS int64 `json:"ns"`
	// FirstNS is the earliest contributing event's start time.
	FirstNS int64 `json:"first_ns"`
	// LastNS is the latest contributing event's end time.
	LastNS int64 `json:"last_ns"`
}

// phaseFold accumulates a per-phase breakdown one event at a time, holding
// the phases in first-seen order. A Collector keeps one running as events
// arrive, so its totals cover events the ring has since overwritten.
type phaseFold struct{ spans []PhaseSpan }

// add folds ev into its phase; events outside the taxonomy are ignored.
func (f *phaseFold) add(ev Event) {
	ph := PhaseOf(ev)
	if ph == "" {
		return
	}
	var ps *PhaseSpan
	for i := range f.spans {
		if f.spans[i].Phase == ph {
			ps = &f.spans[i]
			break
		}
	}
	if ps == nil {
		f.spans = append(f.spans, PhaseSpan{Phase: ph, FirstNS: ev.TimeNS})
		ps = &f.spans[len(f.spans)-1]
	}
	ps.Count++
	ps.NS += ev.DurNS
	if ev.TimeNS < ps.FirstNS {
		ps.FirstNS = ev.TimeNS
	}
	if end := ev.TimeNS + ev.DurNS; end > ps.LastNS {
		ps.LastNS = end
	}
}

// ordered returns the breakdown in PhaseNames order. Phases outside the
// canonical list (unexpected KJobPhase causes) still surface, after the
// known ones, in first-seen order.
func (f *phaseFold) ordered() []PhaseSpan {
	out := make([]PhaseSpan, 0, len(f.spans))
	for _, name := range PhaseNames {
		for _, ps := range f.spans {
			if ps.Phase == name {
				out = append(out, ps)
			}
		}
	}
	for _, ps := range f.spans {
		if !slices.Contains(PhaseNames, ps.Phase) {
			out = append(out, ps)
		}
	}
	return out
}

// SummarizePhases folds an event stream into its per-phase breakdown, in
// PhaseNames order, omitting phases no event contributed to. It sees only
// the events it is handed; Collector.Phases covers a whole job even when
// the ring wrapped.
func SummarizePhases(events []Event) []PhaseSpan {
	var f phaseFold
	for _, ev := range events {
		f.add(ev)
	}
	return f.ordered()
}

// PhaseTotals reduces a breakdown to a phase→nanoseconds map, the form
// JobView carries.
func PhaseTotals(spans []PhaseSpan) map[string]int64 {
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]int64, len(spans))
	for _, ps := range spans {
		out[ps.Phase] = ps.NS
	}
	return out
}
