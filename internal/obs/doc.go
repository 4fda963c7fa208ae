// Package obs is the speculation-lifecycle observability layer: a
// low-overhead structured event tracer plus derived metrics for the
// Privateer runtime.
//
// The paper's evaluation (section 6) attributes runtime cost to individual
// speculation events — worker spawns, privacy checks, checkpoint merges,
// misspeculation, recovery. The runtime emits those events as typed Event
// values through a Tracer; with no tracer attached every instrumentation
// site is a single nil check. Events flow into a Sink — usually the
// ring-buffered Collector — and can be exported as a Chrome trace_event
// JSON file (chrometrace.go). phases.go names the job lifecycle phases; a
// job's time by phase is summed by the runtime into its run record, not
// folded from events.
//
// Emission is safe from any goroutine: the runtime's workers trace
// concurrently with the master. Events from one goroutine are ordered;
// events from different goroutines interleave by arrival, so consumers
// that need a deterministic sequence must filter to kinds emitted by a
// single logical thread (see specrt's golden-sequence tests).
//
// The package deliberately imports nothing from the rest of the repository
// so every layer (vm, specrt, service, bench) can emit into it without
// dependency cycles.
package obs
