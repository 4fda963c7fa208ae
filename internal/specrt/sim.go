package specrt

import (
	"fmt"
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
//   - Price, the one reader of the spawn, join and merge constants, holds
//     every charge for a fleet: a span's spawn and join, a DOALL-only
//     region's in-order invocation priced as a cyclic fleet, the clean and
//     the recovery-priced checkpoint periods, and a fleet-priced compile's
//     test that a hot loop is cheaper speculated than in order.
//
// Whole-program speedup (Figures 6, 7, 9) is then
// steps(best sequential) / simulated-time(parallel), a deterministic,
// host-independent quantity whose *shape* tracks the paper's wall-clock
// results.
const (
	// SimSpawnPerWorker models fork latency and address-space setup. Price
	// charges it to the DOALL-only baseline's regions too, so Figure 7
	// compares the two compilers under one model.
	SimSpawnPerWorker = 2500
	// SimJoinPerWorker models worker-completed signalling.
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
	return max(s.RegionCapacity-used, 0)
}

// simMergePerWorker is the simulated merge cost of one worker's part of one
// checkpoint interval: a page of shadow bytes scanned.
const simMergePerWorker = vm.PageSize * SimCheckpointPerByte

// Price is the simulated machine's price of a fleet of W workers, by which
// the speculative compile judges loops and the runtime charges spans and
// in-order invocations and picks checkpoint periods. A zero W is unpriced.
type Price struct {
	// W is the fleet: the most workers a span spawns.
	W int
}

// Fleet is W′ = min(W, n), the workers an invocation of n iterations gets.
func (p Price) Fleet(n int64) int64 { return min(int64(p.W), n) }

// SpawnJoin is W′·(spawn + join), the fleet's charge on n iterations.
func (p Price) SpawnJoin(n int64) int64 { return p.Fleet(n) * (SimSpawnPerWorker + SimJoinPerWorker) }

// Speculated prices a clean speculative invocation of n iterations of s
// steps: spawn and join, the busiest worker's share under the runtime's
// deal at the clean period, and a page of merge per worker and interval.
func (p Price) Speculated(n, s int64) int64 {
	fleet, k := p.Fleet(n), p.CheckpointPeriod(0, n)
	return p.SpawnJoin(n) + maxShare(n, k, int(fleet))*s + (n+k-1)/k*fleet*simMergePerWorker
}

// InOrder prices n iterations run in order as if dealt cyclically to the
// fleet: spawn and join plus busiest, the busiest worker's steps. The
// runtime passes the share it measured; a judge can pass ⌈n/W′⌉·s.
func (p Price) InOrder(n, busiest int64) int64 { return p.SpawnJoin(n) + busiest }

// Reject is why a compile for the fleet rejects a loop whose average
// invocation runs n iterations of s steps: speculated, it is priced no
// cheaper than its n·s steps in order. It is "" otherwise, and when W is 0.
func (p Price) Reject(n, s int64) string {
	if spec, seq := p.Speculated(n, s), n*s; p.W > 0 && spec >= seq {
		return fmt.Sprintf("unprofitable at %d workers: %d steps speculated vs %d in order", p.W, spec, seq)
	}
	return ""
}

// CheckpointPeriod is the clean period of an invocation of n iterations:
// configured when positive, else about five checkpoints per invocation,
// within [1, MaxCheckpointPeriod].
func (Price) CheckpointPeriod(configured, n int64) int64 {
	if configured <= 0 {
		configured = (n + 4) / 5
	}
	return min(max(configured, 1), MaxCheckpointPeriod)
}

// RecoveryPeriod prices the checkpoint period of a run that has
// misspeculated, by Young's rule k = √(2C / (p·s)): C is the cost of one
// more interval on the fleet (a join and a page of merge per worker), s
// the steps of one re-run iteration and p the recoveries per retired
// iteration; a misspeculation loses half an interval on average. k is
// rounded up to a multiple of W and clamped to [min(W, kClean), kClean];
// with no recovery yet (p = 0) it is kClean.
func (p Price) RecoveryPeriod(kClean, iterSteps int64, rate float64) int64 {
	if rate <= 0 || iterSteps <= 0 {
		return kClean
	}
	w := int64(p.W)
	c := float64(w) * (SimJoinPerWorker + simMergePerWorker)
	k := math.Ceil(math.Sqrt(2 * c / (rate * float64(iterSteps))))
	if k >= float64(kClean) {
		return kClean
	}
	return max(min(w, kClean), min((int64(k)+w-1)/w*w, kClean))
}
