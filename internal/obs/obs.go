package obs

import (
	"fmt"
	"time"
)

// Kind identifies one speculation-lifecycle event type.
type Kind uint8

const (
	// KRegionInvoke is one parallel-region invocation (A=lo, B=hi; spans
	// the whole invocation).
	KRegionInvoke Kind = iota
	// KSpanStart opens one speculative span (A=start iteration,
	// B=checkpoint period).
	KSpanStart
	// KSpanEnd closes a span (A=misspeculated iteration, -1 for clean).
	KSpanEnd
	// KWorkerSpawn is one worker's address-space clone + interpreter setup.
	KWorkerSpawn
	// KWorkerJoin is one worker's completion (DurNS = busy time).
	KWorkerJoin
	// KCheckpoint is the construction of one checkpoint object
	// (Iter=checkpoint id, A=base, B=limit).
	KCheckpoint
	// KContribute is one worker's state merge into a checkpoint
	// (Iter=checkpoint id, A=shadow bytes scanned).
	KContribute
	// KValidate is a cross-interval privacy validation pass
	// (A=violating checkpoint id, -1 for clean).
	KValidate
	// KInstall applies a checkpoint chain to the master space (A=bytes).
	KInstall
	// KCommit commits a checkpoint chain's deferred output (A=records).
	KCommit
	// KPhase is a privacy-phase transition (Cause = phase name: "fast",
	// "validate", "recover", "commit").
	KPhase
	// KMisspec is a detected misspeculation (Iter=iteration, Cause=reason,
	// Site=the instruction that fired, if any, A=the faulting address when
	// the violation concerns a specific memory location, 0 otherwise).
	KMisspec
	// KRecovery is the master's re-run of one misspeculated iteration, with
	// the prefix before it when that is too short to speculate (A=from,
	// B=to).
	KRecovery
	// KSeqFallback is an invocation's remainder run sequentially after the
	// recovery budget was spent (A=from, B=hi; spans the sequential run).
	KSeqFallback
	// KSpawn is one span's whole fleet spawn as a single span (A=spawns
	// satisfied from the warmed pool, B=fleet size, Cause="warm", "cold" or
	// "mixed"); the per-worker KWorkerSpawn instants fall inside it.
	KSpawn
	// KJobPhase is a service-level job-lifecycle phase span (Cause = phase
	// name, e.g. "queued"); the region service emits it around lifecycle
	// stages the runtime itself cannot see.
	KJobPhase

	numKinds = int(KJobPhase) + 1
)

var kindNames = [numKinds]string{
	KRegionInvoke: "region-invoke",
	KSpanStart:    "span-start",
	KSpanEnd:      "span-end",
	KWorkerSpawn:  "worker-spawn",
	KWorkerJoin:   "worker-join",
	KCheckpoint:   "checkpoint",
	KContribute:   "contribute",
	KValidate:     "validate",
	KInstall:      "install",
	KCommit:       "commit",
	KPhase:        "phase",
	KMisspec:      "misspec",
	KRecovery:     "recovery",
	KSeqFallback:  "seq-fallback",
	KSpawn:        "spawn",
	KJobPhase:     "job-phase",
}

// String names the kind for human-readable output.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one structured trace record. Which fields are meaningful depends
// on Kind (see the Kind constants); unused scalar fields are zero or -1.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// TimeNS is the event's start time in nanoseconds since the tracer was
	// created.
	TimeNS int64
	// DurNS is the duration for span-like events; 0 marks an instant.
	DurNS int64
	// Invocation is the parallel-region invocation sequence number the
	// event belongs to, or -1 outside any invocation.
	Invocation int64
	// Worker is the emitting worker id, or -1 for the master/runtime.
	Worker int
	// Iter is the iteration or checkpoint id the event refers to, or -1.
	Iter int64
	// A and B are kind-specific scalars (ranges, byte counts, periods).
	A, B int64
	// Cause is a kind-specific label (misspeculation reason, phase name,
	// how warm a spawn was).
	Cause string
	// Site locates the triggering instruction, when one exists.
	Site string
}

// Sink receives emitted events. Implementations must be safe for
// concurrent Emit calls: workers emit from their own goroutines.
type Sink interface {
	Emit(ev Event)
}

// Tracer stamps and forwards events to a Sink. A nil *Tracer is the
// disabled tracer: every method is a no-op, so instrumentation sites cost
// one branch when tracing is off.
type Tracer struct {
	sink  Sink
	start time.Time
}

// NewTracer returns a tracer forwarding into sink. A nil sink yields a
// disabled tracer.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, start: time.Now()}
}

// On reports whether the tracer is active. Callers on hot paths should
// guard event construction with it.
func (t *Tracer) On() bool { return t != nil }

// Now returns nanoseconds since the tracer started (0 when disabled).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// At converts an instant the caller already read from the clock into the
// tracer's timebase: the TimeNS of an event that began at ts (0 when
// disabled). A span timed with one time.Now pair stamps its event from
// those readings instead of taking a second pair with Now.
func (t *Tracer) At(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.start))
}

// Emit forwards ev to the sink. Safe on a nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.sink.Emit(ev)
}

// Instant emits a duration-less event stamped now.
func (t *Tracer) Instant(ev Event) {
	if t == nil {
		return
	}
	ev.TimeNS = t.Now()
	t.sink.Emit(ev)
}
