package obs

// Job lifecycle phases. The region service decomposes a job's wall time the
// way the paper's cost model decomposes speculation overhead: privatization
// (spawn), execution (run), validation, merge, commit, and recovery — plus
// the service-side queue wait the runtime itself cannot see. The runtime
// sums each phase into its run record (specrt.Stats.PhaseNS) from the clock
// readings that stamp the events named below, so a phase's total equals
// the summed durations of its events.

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
