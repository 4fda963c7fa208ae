package randprog

import (
	"flag"
	"os"
	"slices"
	"testing"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/transform"
)

// elisionToggle is the soak lanes' elision knob: it reproducibly disables
// the transform postprocess pass for a third of the seeds, so the random
// sweeps exercise the unelided per-access checks and the joined/promoted
// span checks alike.
func elisionToggle(seed int64) bool { return seed%3 == 0 }

// sequential runs the program cfg generates, over its full trip count, on
// the production executor and returns its value and output: the sequential
// result every speculative run must reproduce. It fails t for a program not
// among Differentials, the list on which interp's TestDecodedMatchesTreeWalk
// holds that executor to the tree-walking reference; a fuzzed seed is
// FuzzDecodedMatchesTreeWalk's to check.
func sequential(t testing.TB, cfg Config) (uint64, string) {
	t.Helper()
	fuzz := flag.Lookup("test.fuzz")
	if fuzz.Value.String() == "" && !slices.Contains(Differentials(os.Getenv("PRIVATEER_SOAK") == "1"), cfg) {
		t.Fatalf("seed %d: %+v is not among Differentials, so no test runs it on the tree-walking reference", cfg.Seed, cfg)
	}
	v, out, err := core.RunSequential(Generate(cfg), uint64(cfg.Iterations))
	if err != nil {
		t.Fatalf("seed %d: sequential: %v", cfg.Seed, err)
	}
	return v, out
}

// runDifferential executes one seed: sequential reference, then speculative
// runs across worker counts, asserting identical results and output.
// Returns how many speculative runs reported misspeculation.
func runDifferential(t *testing.T, cfg Config, workers []int, inject float64) int64 {
	t.Helper()
	full := uint64(cfg.Iterations)
	seqVal, seqOut := sequential(t, cfg)
	par, err := core.ParallelizeAblated(Generate(cfg),
		core.Options{TrainArgs: []uint64{TrainTrips(cfg)}},
		core.Ablation{Transform: transform.Options{DisablePostprocess: elisionToggle(cfg.Seed)}})
	if err != nil {
		t.Fatalf("seed %d: parallelize: %v", cfg.Seed, err)
	}
	if len(par.Regions) == 0 {
		// Some random programs legitimately fail selection (e.g. the
		// generated body has a pattern our refinements cannot remove);
		// that is a compile-time outcome, not a soundness bug.
		t.Skipf("seed %d: no region selected:\n%s", cfg.Seed, par.Summary())
	}
	var misspecs int64
	for _, w := range workers {
		rt, gotVal, err := core.Run(par, specrt.Config{
			Workers: w, MisspecRate: inject, Seed: uint64(cfg.Seed),
		}, full)
		if err != nil {
			t.Fatalf("seed %d workers=%d: %v", cfg.Seed, w, err)
		}
		if gotVal != seqVal {
			t.Errorf("seed %d workers=%d: result %d, want %d (misspecs=%d)",
				cfg.Seed, w, int64(gotVal), int64(seqVal), rt.Stats.Misspecs)
		}
		if rt.Output() != seqOut {
			t.Errorf("seed %d workers=%d: output mismatch (misspecs=%d)\n got: %.300s\nwant: %.300s",
				cfg.Seed, w, rt.Stats.Misspecs, rt.Output(), seqOut)
		}
		misspecs += rt.Stats.Misspecs
	}
	return misspecs
}

// TestDifferentialClean: random privatizable programs, many seeds, must run
// speculatively without misspeculation and match sequential exactly.
func TestDifferentialClean(t *testing.T) {
	selected := 0
	for seed := int64(1); seed <= 30; seed++ {
		cfg := DefaultConfig(seed)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			m := runDifferential(t, cfg, []int{3, 7}, 0)
			if m != 0 {
				t.Errorf("seed %d: clean program misspeculated %d times", seed, m)
			}
			selected++
		})
	}
	if selected == 0 {
		t.Fatal("no random program survived selection")
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestDifferentialWithInjection: injected misspeculation must never change
// results (recovery restores sequential semantics).
func TestDifferentialWithInjection(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := DefaultConfig(seed)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			runDifferential(t, cfg, []int{5}, 0.15)
		})
	}
}

// TestDifferentialViolation: a genuine privacy violation hidden from the
// profile must be caught at run time (or rejected at compile time), and the
// final output must still equal the sequential run.
func TestDifferentialViolation(t *testing.T) {
	detected := 0
	ran := 0
	for seed := int64(1); seed <= 20; seed++ {
		cfg := DefaultConfig(seed)
		cfg.Violate = true
		full := uint64(cfg.Iterations)
		seqVal, seqOut := sequential(t, cfg)
		par, err := core.Parallelize(Generate(cfg), core.Options{
			TrainArgs: []uint64{TrainTrips(cfg)},
		})
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
		if rt.Stats.Misspecs > 0 {
			detected++
		}
	}
	if ran == 0 {
		t.Skip("every violating program was rejected at compile time")
	}
	t.Logf("violating programs: %d ran speculatively, %d detected at run time", ran, detected)
	if detected == 0 {
		t.Error("no violation was ever detected at run time (suspicious)")
	}
}

// FuzzDifferential exposes the differential test to `go test -fuzz`: any
// seed (with or without a planted violation) must yield sequential-equal
// results under speculation.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(99), false)
	f.Fuzz(func(t *testing.T, seed int64, violate bool) {
		if seed == 0 {
			seed = 1
		}
		cfg := DefaultConfig(seed)
		cfg.Violate = violate
		full := uint64(cfg.Iterations)
		seqVal, seqOut := sequential(t, cfg)
		par, err := core.Parallelize(Generate(cfg), core.Options{
			TrainArgs: []uint64{TrainTrips(cfg)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Regions) == 0 {
			return
		}
		rt, gotVal, err := core.Run(par, specrt.Config{Workers: 4}, full)
		if err != nil {
			t.Fatal(err)
		}
		if gotVal != seqVal || rt.Output() != seqOut {
			t.Fatalf("seed %d violate=%v: speculative run diverged (misspecs=%d)",
				seed, violate, rt.Stats.Misspecs)
		}
	})
}

// TestOptimizerOnRandomPrograms: ir.Optimize must preserve the behaviour of
// every generated program.
func TestOptimizerOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := DefaultConfig(seed)
		full := uint64(cfg.Iterations)
		wantVal, wantOut, err := core.RunSequential(Generate(cfg), full)
		if err != nil {
			t.Fatal(err)
		}
		m := Generate(cfg)
		ir.OptimizeModule(m)
		gotVal, gotOut, err := core.RunSequential(m, full)
		if err != nil {
			t.Fatalf("seed %d optimized: %v", seed, err)
		}
		if gotVal != wantVal || gotOut != wantOut {
			t.Errorf("seed %d: optimizer changed behaviour", seed)
		}
	}
}

// TestParserOnRandomPrograms: textual round trips preserve the behaviour of
// every generated program.
func TestParserOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		cfg := DefaultConfig(seed)
		full := uint64(cfg.Iterations)
		wantVal, wantOut, err := core.RunSequential(Generate(cfg), full)
		if err != nil {
			t.Fatal(err)
		}
		text := ir.FormatModule(Generate(cfg))
		m, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotVal, gotOut, err := core.RunSequential(m, full)
		if err != nil {
			t.Fatalf("seed %d parsed: %v", seed, err)
		}
		if gotVal != wantVal || gotOut != wantOut {
			t.Errorf("seed %d: parser changed behaviour", seed)
		}
	}
}
