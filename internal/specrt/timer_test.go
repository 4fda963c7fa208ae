package specrt

import (
	"fmt"
	"testing"
	"time"

	"privateer/internal/classify"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/vm"
)

// kindLedger folds an event stream into per-kind event counts and summed
// durations.
func kindLedger(events []obs.Event) (n, dur map[obs.Kind]int64) {
	n, dur = map[obs.Kind]int64{}, map[obs.Kind]int64{}
	for _, ev := range events {
		n[ev.Kind]++
		dur[ev.Kind] += ev.DurNS
	}
	return n, dur
}

// checkTimeLedger asserts what spanTimer guarantees: a timed section's Stats
// field and its events are one reading, so they agree to the nanosecond, and
// the sections nest the way the runtime nests them. It returns the stream's
// per-kind counts and durations for the caller's own checks.
func checkTimeLedger(t *testing.T, st Stats, events []obs.Event) (n, dur map[obs.Kind]int64) {
	t.Helper()
	n, dur = kindLedger(events)
	for _, c := range []struct {
		kinds []obs.Kind
		stats int64
		field string
	}{
		{[]obs.Kind{obs.KSpawn}, st.SpawnNS, "SpawnNS"},
		{[]obs.Kind{obs.KWorkerJoin}, st.WorkerBusyNS, "WorkerBusyNS"},
		{[]obs.Kind{obs.KContribute}, st.CheckpointNS, "CheckpointNS"},
		{[]obs.Kind{obs.KRegionInvoke}, st.RegionWallNS, "RegionWallNS"},
		{[]obs.Kind{obs.KValidate}, st.ValidateNS, "ValidateNS"},
		{[]obs.Kind{obs.KInstall, obs.KCommit}, st.CommitNS, "CommitNS"},
		{[]obs.Kind{obs.KRecovery, obs.KSeqFallback}, st.RecoveryNS, "RecoveryNS"},
	} {
		var sum int64
		for _, k := range c.kinds {
			sum += dur[k]
		}
		if sum != c.stats {
			t.Errorf("sum of %v durations %d != Stats.%s %d", c.kinds, sum, c.field, c.stats)
		}
	}
	if st.ValidateNS+st.CommitNS > st.JoinNS || st.JoinNS > st.RegionWallNS {
		t.Errorf("ValidateNS %d + CommitNS %d <= JoinNS %d <= RegionWallNS %d does not hold",
			st.ValidateNS, st.CommitNS, st.JoinNS, st.RegionWallNS)
	}
	// Once each: one fleet spawn per span, one busy span per spawned worker.
	if n[obs.KSpawn] != n[obs.KSpanStart] {
		t.Errorf("%d fleet spawns over %d spans", n[obs.KSpawn], n[obs.KSpanStart])
	}
	if n[obs.KWorkerJoin] != n[obs.KWorkerSpawn] {
		t.Errorf("%d worker busy spans for %d spawned workers", n[obs.KWorkerJoin], n[obs.KWorkerSpawn])
	}
	return n, dur
}

// TestTimeLedgerReconciles: on every way through an invocation — clean,
// recovered misspeculation, workers squashed before their first
// contribution followed by the sequential fallback, and a hard error while
// spawning — each timed section is accounted once and its two views agree
// exactly.
func TestTimeLedgerReconciles(t *testing.T) {
	// The fallback case needs more iterations than the recovery budget: each
	// of its spans misspeculates at its first iteration and advances by one.
	cases := []struct {
		name  string
		iters int64
		cfg   Config
		check func(t *testing.T, st Stats, n map[obs.Kind]int64)
	}{
		{"clean", 40, Config{CheckpointPeriod: 5}, func(t *testing.T, st Stats, n map[obs.Kind]int64) {
			if st.Misspecs != 0 || st.CheckpointNS <= 0 {
				t.Errorf("misspecs %d, CheckpointNS %d; want a clean run that merged", st.Misspecs, st.CheckpointNS)
			}
		}},
		{"recovery", 40, Config{CheckpointPeriod: 5, MisspecRate: 0.5, Seed: 3},
			func(t *testing.T, st Stats, n map[obs.Kind]int64) {
				if st.Recoveries == 0 || st.SequentialFallbacks != 0 || n[obs.KRecovery] != st.Recoveries {
					t.Errorf("recoveries %d (events %d), fallbacks %d; want recoveries only",
						st.Recoveries, n[obs.KRecovery], st.SequentialFallbacks)
				}
			}},
		{"fallback", 4*DefaultMaxRecoveries + 8, Config{CheckpointPeriod: 5, MisspecRate: 1, Seed: 3},
			func(t *testing.T, st Stats, n map[obs.Kind]int64) {
				if st.Checkpoints != 0 || st.SequentialFallbacks != 1 || n[obs.KSeqFallback] != 1 {
					t.Errorf("checkpoints %d, fallbacks %d (events %d); want every worker squashed before contributing, then one fallback",
						st.Checkpoints, st.SequentialFallbacks, n[obs.KSeqFallback])
				}
				if st.SpawnNS <= 0 || st.WorkerBusyNS <= 0 {
					t.Errorf("squashed fleet lost its time: SpawnNS %d, WorkerBusyNS %d", st.SpawnNS, st.WorkerBusyNS)
				}
			}},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				col := obs.NewCollector(1 << 16)
				cfg := c.cfg
				cfg.Workers, cfg.Trace = workers, obs.NewTracer(col)
				mod := buildScratchModule(c.iters)
				rt := New(mod, cfg, buildRegion(t, mod))
				// buildScratchModule(n) returns out[n-1] = 4(n-1) + 6.
				if v, err := rt.Run(); err != nil || int64(v) != 4*(c.iters-1)+6 {
					t.Fatalf("result %d, %v; want %d", v, err, 4*(c.iters-1)+6)
				}
				if col.Dropped() != 0 {
					t.Fatal("collector wrapped")
				}
				st := rt.Stats
				n, dur := checkTimeLedger(t, st, col.Events())
				c.check(t, st, n)
				if n[obs.KSeqFallback] > 0 && dur[obs.KSeqFallback] <= 0 {
					t.Error("the fallback's sequential run carries no duration")
				}
			})
		}
	}

	// A reduction operator with no identity makes newWorker fail: the
	// invocation dies in spawnFleet, which still closes its section.
	mod, site := buildReduxReallocModule()
	assign := &classify.Assignment{
		ReduxOps:   map[profiling.Object]ir.ReduxKind{{Site: site}: ir.ReduxKind(99)},
		ReduxSizes: map[profiling.Object]int64{{Site: site}: 8},
	}
	col := obs.NewCollector(0)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4, Trace: obs.NewTracer(col)},
		outlineRegion(t, mod, assign))
	if _, err := rt.Run(); err == nil {
		t.Fatal("a worker with no reduction identity spawned")
	}
	st := rt.Stats
	checkTimeLedger(t, st, col.Events())
	if st.SpawnNS <= 0 || st.WorkerBusyNS != 0 || st.RegionWallNS < st.SpawnNS {
		t.Errorf("failed spawn: SpawnNS %d, WorkerBusyNS %d, RegionWallNS %d; want spawn time inside the region's, no busy time",
			st.SpawnNS, st.WorkerBusyNS, st.RegionWallNS)
	}
}

// TestPrivacyClockEstimate pins the estimator behind Stats.PrivReadNS and
// PrivWriteNS: the worker's Speculator reads the clock around one check in
// privTimeEvery and foldStats scales that to every check of the window, so
// the totals must stay within a factor of two of the same checks timed one
// by one. The
// windows between folds are dijkstra's (thousands of 8-byte checks) and
// blackscholes' (two or three span checks, where scaling by the period
// instead of by the count would read 20 times high). A preemption inside
// either measurement breaks the comparison, so a bad attempt is retried.
func TestPrivacyClockEstimate(t *testing.T) {
	const attempts = 5
	for attempt := 1; ; attempt++ {
		rt := &RT{}
		as := vm.NewAddressSpace()
		w := &worker{sp: &spanState{rt: rt}, as: as, curTS: TimestampFor(0, 0),
			it: interp.New(ir.NewModule("m"), as)}
		w.installHooks()
		spec := w.it.Spec
		base := ir.HeapPrivate.Base() + vm.PageSize
		var exact time.Duration
		var checks int64
		for _, window := range []int{3, 2000, 50, 64, 65, 3, 5000, 2} {
			for i := 0; i < window; i++ {
				addr := base + uint64(i%4096)*8
				t0 := time.Now()
				var err error
				switch {
				case window < 10:
					err = spec.Private(nil, base, 512, 8, 8, true)
				case i%2 == 0:
					err = spec.Private(nil, addr, 1, 8, 8, true)
				default:
					err = spec.Private(nil, addr-8, 1, 8, 8, false)
				}
				exact += time.Since(t0)
				if err != nil {
					t.Fatal(err)
				}
				checks++
			}
			w.foldStats()
		}
		st := w.local
		if st.PrivReadChecks+st.PrivWriteChecks != checks {
			t.Fatalf("hooks counted %d+%d checks of %d", st.PrivReadChecks, st.PrivWriteChecks, checks)
		}
		est := time.Duration(st.PrivReadNS + st.PrivWriteNS)
		t.Logf("attempt %d: sampled estimate %v, timed check by check %v", attempt, est, exact)
		if st.PrivReadNS > 0 && st.PrivWriteNS > 0 && est > exact/2 && est < 2*exact {
			return
		}
		if attempt == attempts {
			t.Fatalf("sampled estimate %v (read %d ns, write %d ns) against %v timed check by check", est, st.PrivReadNS, st.PrivWriteNS, exact)
		}
	}
}
