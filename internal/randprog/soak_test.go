package randprog

import (
	"os"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/specrt"
	"privateer/internal/transform"
)

// The soak lane runs the full speculate/validate/recover cycle over random
// programs whose scratch state spans hundreds of sparse pages — the radix
// page table's range-COW and dirty-summary paths under concurrency (the
// suite is expected to run with -race). A few seeds run unconditionally so
// CI exercises the lane; PRIVATEER_SOAK=1 widens the seed range and the
// scratch footprint for long-form soaking.

// soakConfig returns the soak lanes' program for seed, as Differentials
// lists it.
func soakConfig(seed int64, long bool) Config {
	for _, cfg := range Differentials(long) {
		if cfg.Spread != 0 && cfg.Seed == seed && !cfg.Violate {
			return cfg
		}
	}
	panic("randprog: soak seed " + itoa(seed) + " is not among Differentials")
}

// soakSeeds picks the lane width: a CI-sized handful by default, a wide
// sweep under PRIVATEER_SOAK=1.
func soakSeeds(long bool) (int64, int64) {
	if long {
		return 1, 40
	}
	return 1, 6
}

// TestSoakSpeculation: clean speculation over sparse huge scratch state must
// match the sequential reference at several worker counts.
func TestSoakSpeculation(t *testing.T) {
	long := os.Getenv("PRIVATEER_SOAK") == "1"
	lo, hi := soakSeeds(long)
	for seed := lo; seed <= hi; seed++ {
		cfg := soakConfig(seed, long)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			runDifferential(t, cfg, []int{3, 8}, 0)
		})
	}
}

// TestSoakRecovery: injected misspeculation forces the validate/recover
// path — checkpoint rollback plus sequential re-execution — over the same
// sparse footprint; results must still be sequential-equal.
func TestSoakRecovery(t *testing.T) {
	long := os.Getenv("PRIVATEER_SOAK") == "1"
	lo, hi := soakSeeds(long)
	for seed := lo; seed <= hi; seed++ {
		cfg := soakConfig(seed, long)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			runDifferential(t, cfg, []int{5}, 0.15)
		})
	}
}

// TestSoakSepAudit: the runtime separation-audit oracle rides along on
// clean soak seeds — organically proven objects must produce zero
// violations while results stay sequential-equal, at every worker count.
func TestSoakSepAudit(t *testing.T) {
	long := os.Getenv("PRIVATEER_SOAK") == "1"
	lo, hi := soakSeeds(long)
	for seed := lo; seed <= hi; seed++ {
		cfg := soakConfig(seed, long)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			full := uint64(cfg.Iterations)
			seqVal, seqOut := sequential(t, cfg)
			par, err := core.ParallelizeAblated(Generate(cfg),
				core.Options{TrainArgs: []uint64{TrainTrips(cfg)}},
				core.Ablation{Transform: transform.Options{DisablePostprocess: elisionToggle(seed)}})
			if err != nil {
				t.Fatalf("parallelize: %v", err)
			}
			if len(par.Regions) == 0 {
				t.Skipf("no region selected:\n%s", par.Summary())
			}
			rt, gotVal, err := core.Run(par, specrt.Config{Workers: 5, SepAudit: true}, full)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n := rt.Stats.SepAuditViolations; n > 0 {
				t.Errorf("sound proofs flagged %d time(s):\n%s", n,
					strings.Join(rt.SepAudit, "\n"))
			}
			if gotVal != seqVal || rt.Output() != seqOut {
				t.Errorf("result %d, want %d (misspecs=%d)",
					int64(gotVal), int64(seqVal), rt.Stats.Misspecs)
			}
		})
	}
}

// TestSoakSepAuditCatchesPlantedProof: an unsound covered-write proof
// planted on the scratch array drops its privacy marks, so the generated
// violation (a read-before-write past the training horizon) would corrupt
// the run silently — the soak lane's SepAudit oracle must flag it.
func TestSoakSepAuditCatchesPlantedProof(t *testing.T) {
	long := os.Getenv("PRIVATEER_SOAK") == "1"
	lo, hi := soakSeeds(long)
	planted, caught := 0, 0
	for seed := lo; seed <= hi; seed++ {
		cfg := soakConfig(seed, long)
		cfg.Violate = true
		cfg.ViolateSelect = true // branch-free: control speculation cannot shield it
		full := uint64(cfg.Iterations)
		par, err := core.ParallelizeAblated(Generate(cfg),
			core.Options{TrainArgs: []uint64{TrainTrips(cfg)}},
			core.Ablation{PlantProofs: map[string]string{"@scratch": "covered"}})
		if err != nil {
			t.Fatalf("seed %d: parallelize: %v", seed, err)
		}
		took := false
		for _, ri := range par.Regions {
			if ri.TStats.StaticPrivMarksDropped > 0 {
				took = true
			}
		}
		if !took {
			continue // region rejected or scratch not privatized: plant inert
		}
		planted++
		rt, _, err := core.Run(par, specrt.Config{Workers: 5, SepAudit: true}, full)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if rt.Stats.SepAuditViolations > 0 {
			caught++
		} else {
			t.Errorf("seed %d: planted unsound proof not flagged (misspecs=%d)",
				seed, rt.Stats.Misspecs)
		}
	}
	if planted == 0 {
		t.Skip("plant never took effect on any soak seed")
	}
	t.Logf("planted proofs caught on %d/%d seed(s)", caught, planted)
}

// TestSoakViolation: planted privacy violations over the sparse footprint
// must be rejected at compile time or caught at run time, never silently
// corrupt results.
func TestSoakViolation(t *testing.T) {
	long := os.Getenv("PRIVATEER_SOAK") == "1"
	lo, hi := soakSeeds(long)
	ran := 0
	for seed := lo; seed <= hi; seed++ {
		cfg := soakConfig(seed, long)
		cfg.Violate = true
		full := uint64(cfg.Iterations)
		seqVal, seqOut := sequential(t, cfg)
		par, err := core.ParallelizeAblated(Generate(cfg),
			core.Options{TrainArgs: []uint64{TrainTrips(cfg)}},
			core.Ablation{Transform: transform.Options{DisablePostprocess: elisionToggle(seed)}})
		if err != nil {
			t.Fatalf("seed %d: parallelize: %v", seed, err)
		}
		if len(par.Regions) == 0 {
			continue // rejected at compile time: also sound
		}
		ran++
		rt, gotVal, err := core.Run(par, specrt.Config{Workers: 5, CheckpointPeriod: 3}, full)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if gotVal != seqVal || rt.Output() != seqOut {
			t.Errorf("seed %d: UNSOUND: result %d vs %d, misspecs=%d",
				seed, int64(gotVal), int64(seqVal), rt.Stats.Misspecs)
		}
	}
	if ran == 0 {
		t.Skip("every violating program was rejected at compile time")
	}
}
