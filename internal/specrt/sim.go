package specrt

import (
	"math"

	"privateer/internal/vm"
)

// Simulated-time cost model.
//
// The paper measures wall-clock time on a 24-core Xeon. This reproduction
// interprets IR, and the build/evaluation host may have any number of cores
// (including one), so wall-clock scaling would measure the host, not the
// system. Instead the runtime accounts deterministic *simulated time* in
// units of interpreted instructions ("steps"):
//
//   - each executed IR instruction costs 1 step;
//   - runtime services cost the constants below, calibrated to the
//     relative magnitudes the paper reports (fork-based spawn is expensive,
//     inline privacy checks cost a few instructions per byte, checkpoint
//     merging scans shadow pages);
//   - a parallel span's simulated time is
//     spawn + max over workers(steps + validation costs) + install/commit,
//     i.e. workers genuinely overlap and the slowest worker plus the
//     serial sections bound the region (Amdahl accounting);
//   - sequential recovery executes serially and adds its steps directly;
//   - an invocation of a DOALL-only region (no Assign) runs in order and
//     is priced as a cyclic fleet of W′ = min(workers, iterations):
//     W′ × (spawn + join) + the busiest worker's steps (runInOrder);
//   - once a run has recovered, the same constants price its checkpoint
//     period (recoveryPeriod);
//   - a compile for a known fleet prices each hot loop's invocation with
//     them too (PriceInvocation), and skips a loop not cheaper speculated.
//
// Whole-program speedup (Figures 6, 7, 9) is then
// steps(best sequential) / simulated-time(parallel), a deterministic,
// host-independent quantity whose *shape* tracks the paper's wall-clock
// results.
const (
	// SimSpawnPerWorker models fork latency and address-space setup. The
	// DOALL-only baseline's regions (RT.runInOrder) are charged it too, so
	// Figure 7 compares the two compilers under one model.
	SimSpawnPerWorker = 2500
	// SimJoinPerWorker models worker-completed signalling; RT.runInOrder
	// charges it too.
	SimJoinPerWorker = 400
	// SimPrivacyPerByte is the inline shadow-metadata update per private
	// byte accessed.
	SimPrivacyPerByte = 2
	// SimCheckpointPerByte is the merge cost per shadow byte scanned while
	// adding worker state to a checkpoint.
	SimCheckpointPerByte = 1
	// SimSeparationCheck is the pointer tag test (a few bit operations).
	SimSeparationCheck = 2
	// SimPredict is a value-prediction comparison.
	SimPredict = 2
	// SimShortLivedCheck is the per-iteration live-object count check.
	SimShortLivedCheck = 3
	// SimInstallPerByte is the cost of installing checkpoint bytes into
	// the main process (page-map manipulation amortized per byte).
	SimInstallPerByte = 1
	// SimCommitPerIO is the cost of committing one deferred output
	// operation.
	SimCommitPerIO = 20
)

// SimStats aggregates the simulated-time accounting of a run, for the
// speedup figures and the Figure 8 overhead breakdown.
type SimStats struct {
	// RegionTime is the simulated time of all parallel invocations.
	RegionTime int64
	// RegionCapacity is Σ workers × span time: the total computational
	// capacity of Figure 8.
	RegionCapacity int64
	// UsefulSteps is Σ over workers of interpreted instructions (the
	// original program's work).
	UsefulSteps int64
	// PrivReadCost is the simulated privacy-validation cost of reads.
	PrivReadCost int64
	// PrivWriteCost is the simulated privacy-validation cost of writes.
	PrivWriteCost int64
	// CheckpointCost is the simulated merge + install + commit cost.
	CheckpointCost int64
	// OtherCheckCost covers separation checks, predictions and
	// short-lived counting.
	OtherCheckCost int64
	// SpawnCost is the simulated fork cost.
	SpawnCost int64
	// RecoverySteps counts serial recovery re-execution.
	RecoverySteps int64
	// SeqSteps counts master-process execution outside parallel regions.
	SeqSteps int64
}

// Time returns the whole program's simulated execution time.
func (s *SimStats) Time() int64 { return s.SeqSteps + s.RegionTime + s.RecoverySteps }

// IdleCost returns the capacity lost to spawn latency, imbalance, join and
// serial sections inside regions: Figure 8's "Spawn/Join" category.
func (s *SimStats) IdleCost() int64 {
	used := s.UsefulSteps + s.PrivReadCost + s.PrivWriteCost +
		s.CheckpointCost + s.OtherCheckCost
	idle := s.RegionCapacity - used
	if idle < 0 {
		idle = 0
	}
	return idle
}

// simMergePerWorker is the simulated merge cost of one worker's part of one
// checkpoint interval: a page of shadow bytes scanned.
const simMergePerWorker = vm.PageSize * SimCheckpointPerByte

// PriceInvocation prices one clean invocation of n iterations of s steps
// each on a fleet of w workers, in simulated steps: spec is the speculative
// span (spawn and join of min(w, n) workers, the busiest worker's share at
// the runtime's clean checkpoint period, and a page of merge per worker and
// interval), seq the same iterations run in order on the master.
func PriceInvocation(n, s int64, w int) (spec, seq int64) {
	fleet := min(int64(w), n)
	k := checkpointPeriod(0, n)
	intervals := (n + k - 1) / k
	spec = fleet*(SimSpawnPerWorker+SimJoinPerWorker) + maxShare(n, k, int(fleet))*s +
		intervals*fleet*simMergePerWorker
	return spec, n * s
}

// recoveryPeriod prices the checkpoint period of a run that has
// misspeculated, by Young's rule k = √(2C / (p·s)): C is the simulated cost
// of one more interval on a fleet of w workers (a join and one page of
// merge each), s the steps of one re-run iteration and p the recoveries per
// retired iteration; a misspeculation loses half an interval on average.
// The result is rounded up to a multiple of w and clamped to
// [min(w, kClean), kClean], kClean being the invocation's clean period.
func recoveryPeriod(w int, kClean, iterSteps int64, rate float64) int64 {
	if rate <= 0 || iterSteps <= 0 {
		return kClean
	}
	c := float64(w) * (SimJoinPerWorker + simMergePerWorker)
	k := math.Ceil(math.Sqrt(2 * c / (rate * float64(iterSteps))))
	if k >= float64(kClean) {
		return kClean
	}
	n := (int64(k) + int64(w) - 1) / int64(w) * int64(w)
	return max(min(int64(w), kClean), min(n, kClean))
}
