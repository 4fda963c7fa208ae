// Package specrt is Privateer's runtime support system (section 5 of the
// paper). It manages the logical heaps and validates their speculative
// separation, validates speculative privacy through shadow-memory metadata
// (Table 2), coordinates periodic checkpoints, recovers from
// misspeculation, merges reductions, and commits deferred output — all
// under DOALL parallel execution with worker "processes" realized as
// goroutines owning copy-on-write address-space clones.
//
// # Lifecycle
//
// RT.Run interprets the transformed module on the master interpreter; each
// parallel-region call becomes RT.invoke, which executes the region as a
// sequence of speculative spans (spanState). A span spawns workers over
// COW clones of the master address space, partitions its iterations into
// checkpoint intervals of k iterations, and merges worker state into one
// checkpoint object per interval. Validation has two phases: the fast
// phase (per-access Table 2 shadow transitions inside each worker) and the
// checkpoint phase (the merge in checkpoint.addWorkerState plus the
// cross-interval chain validation in crossValidate). A valid prefix of the
// chain is installed into the master space and its deferred output
// committed; a misspeculation squashes in-flight intervals and re-executes
// from the last valid checkpoint boundary sequentially. See
// ARCHITECTURE.md at the repository root for the end-to-end walk-through.
//
// There is one commit path: spanState.run joins the workers, finishSync
// chain-validates on the master, and invoke installs and commits the valid
// prefix. All of it is timed into Stats.JoinNS. Every timed section goes
// through spanTimer (timer.go), which writes the Stats field and the trace
// event from one pair of clock readings, so the two always agree exactly.
//
// # Invariants
//
// Shadow metadata: every private-heap byte has a shadow byte holding
// MetaLiveIn (untouched since region entry), MetaOldWrite (written before
// the last checkpoint), MetaReadLiveIn (its live-in value was read —
// validation deferred to the checkpoint), or a MetaTSBase+n timestamp
// (written at iteration n after the last checkpoint). A byte read as
// live-in must never have been written by an earlier iteration — enforced
// within an interval by the merge, across intervals by chain validation.
//
// Reduction folds are deterministic: worker contributions are cumulative
// snapshots, folded exactly once per span, from the last valid checkpoint,
// in ascending worker-id order — so floating-point reductions are
// bit-identical run to run regardless of scheduling.
//
// Checkpoints are self-contained: each records only the bytes written in
// its own interval, so a chain installs oldest first, one interval's bytes
// at a time, and any valid prefix of it is itself installable.
//
// Committed program output is append-only and ordered: deferred records
// commit per interval in interval order, each interval's records in
// iteration order, under RT.outMu.
package specrt
