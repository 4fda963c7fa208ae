package interp_test

import (
	"fmt"
	"os"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/randprog"
	"privateer/internal/vm"
)

// TestDecodedMatchesTreeWalk runs randomly generated programs through both
// executors — the pre-decoded dispatch loop and the tree-walking reference —
// and requires bit-identical results: same return value, same output, same
// exact step count, same error. Its programs are randprog.Differentials,
// every one randprog's differentials and soak lanes run sequentially (the
// long soak sweep under PRIVATEER_SOAK=1).
func TestDecodedMatchesTreeWalk(t *testing.T) {
	for _, cfg := range randprog.Differentials(os.Getenv("PRIVATEER_SOAK") == "1") {
		name := fmt.Sprintf("seed%d", cfg.Seed)
		if cfg.Violate {
			name = "violate_" + name
		}
		if cfg.Spread != 0 {
			name = "soak_" + name
		}
		t.Run(name, func(t *testing.T) { matchTreeWalk(t, cfg) })
	}
}

// FuzzDecodedMatchesTreeWalk is TestDecodedMatchesTreeWalk over fuzzed
// randprog seeds, with and without the planted violation.
//
//	go test -run '^$' -fuzz '^FuzzDecodedMatchesTreeWalk$' ./internal/interp/
func FuzzDecodedMatchesTreeWalk(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Fuzz(func(t *testing.T, seed int64, violate bool) {
		cfg := randprog.DefaultConfig(seed)
		cfg.Violate = violate
		matchTreeWalk(t, cfg)
	})
}

// matchTreeWalk runs the program cfg generates over its full trip count on
// both executors and fails t unless they agree.
func matchTreeWalk(t *testing.T, cfg randprog.Config) {
	iters := uint64(cfg.Iterations)

	mod := randprog.Generate(cfg)
	fast := interp.New(mod, vm.NewAddressSpace())
	fastRet, fastErr := fast.Run(iters)

	slow := interp.NewReference(randprog.Generate(cfg), vm.NewAddressSpace())
	slowRet, slowErr := slow.Run(iters)

	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("error mismatch: decoded=%v tree-walk=%v", fastErr, slowErr)
	}
	if fastErr != nil && fastErr.Error() != slowErr.Error() {
		t.Fatalf("error text mismatch:\n decoded:   %v\n tree-walk: %v", fastErr, slowErr)
	}
	if fastRet != slowRet {
		t.Errorf("return value: decoded=%d tree-walk=%d", fastRet, slowRet)
	}
	if fast.Out.String() != slow.Out.String() {
		t.Errorf("output mismatch:\n decoded:   %.200q\n tree-walk: %.200q",
			fast.Out.String(), slow.Out.String())
	}
	if fast.Steps != slow.Steps {
		t.Errorf("step count: decoded=%d tree-walk=%d", fast.Steps, slow.Steps)
	}
}

// TestDecodedStepLimitParity pins that both executors abort at exactly the
// same instruction with the same error when a step budget runs out.
func TestDecodedStepLimitParity(t *testing.T) {
	cfg := randprog.DefaultConfig(3)
	iters := uint64(cfg.Iterations)
	for _, limit := range []int64{1, 10, 100, 1000} {
		fast := interp.New(randprog.Generate(cfg), vm.NewAddressSpace())
		fast.StepLimit = limit
		_, fastErr := fast.Run(iters)

		slow := interp.NewReference(randprog.Generate(cfg), vm.NewAddressSpace())
		slow.StepLimit = limit
		_, slowErr := slow.Run(iters)

		if fastErr == nil || slowErr == nil {
			t.Fatalf("limit %d: expected both to abort, got decoded=%v tree-walk=%v",
				limit, fastErr, slowErr)
		}
		if fastErr.Error() != slowErr.Error() {
			t.Errorf("limit %d error text:\n decoded:   %v\n tree-walk: %v",
				limit, fastErr, slowErr)
		}
		if fast.Steps != slow.Steps {
			t.Errorf("limit %d steps at abort: decoded=%d tree-walk=%d",
				limit, fast.Steps, slow.Steps)
		}
	}
}

// TestSharedProgramReuse pins that interpreters sharing one decoded Program
// behave identically to interpreters that decode independently.
func TestSharedProgramReuse(t *testing.T) {
	cfg := randprog.DefaultConfig(7)
	iters := uint64(cfg.Iterations)
	mod := randprog.Generate(cfg)

	ref := interp.New(mod, vm.NewAddressSpace())
	refRet, refErr := ref.Run(iters)
	if refErr != nil {
		t.Fatalf("reference run: %v", refErr)
	}

	for i := 0; i < 3; i++ {
		it := interp.NewShared(ref.Program(), vm.NewAddressSpace())
		ret, err := it.Run(iters)
		if err != nil {
			t.Fatalf("shared run %d: %v", i, err)
		}
		if ret != refRet || it.Out.String() != ref.Out.String() || it.Steps != ref.Steps {
			t.Errorf("shared run %d diverged: ret=%d/%d steps=%d/%d",
				i, ret, refRet, it.Steps, ref.Steps)
		}
	}
}
