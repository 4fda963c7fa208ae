// Package randprog generates random programs for differential testing of
// the speculative runtime. A generated program is a counted loop over a set
// of global arrays with a mix of the access patterns Privateer classifies:
// scratch arrays written before read within each iteration (private),
// read-only tables, add/min reductions, short-lived heap nodes, deferred
// output, and optionally a value-predicted flag location.
//
// By construction the loop satisfies the privatization and reduction
// criteria, so the pipeline must select it and the speculative execution
// must reproduce the sequential output exactly. With Violate set, one read
// escapes the written prefix of a scratch array, introducing a genuine
// cross-iteration flow dependence that the profile cannot see on the
// training prefix — the runtime must detect it and recover, still producing
// the sequential output.
package randprog

import (
	"fmt"
	"math/rand"

	"privateer/internal/ir"
)

// Config controls generation.
type Config struct {
	// Seed drives all random choices.
	Seed int64
	// Iterations is the loop trip count.
	Iterations int64
	// Scratch and ReadOnly are array lengths (elements).
	Scratch, ReadOnly int64
	// Stmts is the number of body statements.
	Stmts int
	// Violate plants one read-before-write of scratch state in iterations
	// >= Iterations/2 (so a profile over the first half misses it).
	Violate bool
	// ViolateSelect changes the planted violation's shape: the stale read
	// goes through an unconditional load whose slot address is chosen by a
	// Select on the iteration index, instead of a guarded branch. Control
	// speculation cannot shield a branch-free violation, so it must be
	// caught by the privacy checks themselves — or, when those were
	// discharged by an (unsound) static proof, by the SepAudit oracle.
	// Only meaningful together with Violate.
	ViolateSelect bool
	// Spread, when non-zero, rotates every scratch slot index by i*Spread
	// (mod Scratch) so each iteration touches a different window of the
	// array. The per-iteration write-before-read discipline is unchanged —
	// the rotation is injective — but the loop's footprint becomes sparse
	// across the whole scratch array instead of a fixed handful of slots
	// (the soak lane's huge-page-table shape).
	Spread int64
	// DigestStride, when > 1, makes the final digest loop sample every
	// DigestStride-th scratch slot instead of all of them, keeping the
	// sequential epilogue from dominating the profile when Scratch is huge.
	DigestStride int64
}

// DefaultConfig returns a medium-sized configuration for seed.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		Iterations: 24,
		Scratch:    10,
		ReadOnly:   8,
		Stmts:      12,
	}
}

// Differentials returns every program the differential tests and soak lanes
// of this package run sequentially, long widening the soak lanes as
// PRIVATEER_SOAK=1 does. Those tests refuse a program missing here, and
// interp's TestDecodedMatchesTreeWalk runs each on both executors. A soak
// program (Spread set) has a sparse scratch array of 64 pages, 256 when
// long, whose slot window Spread rotates over the whole array, so worker
// spaces split scattered radix subtrees; its DigestStride keeps the
// sequential epilogue cold enough for the main loop to win selection.
func Differentials(long bool) []Config {
	cfgs, soak := []Config{DefaultConfig(99)}, int64(6)
	shape := Config{Iterations: 192, Scratch: 1 << 15, ReadOnly: 1 << 10, Stmts: 12, Spread: 61, DigestStride: 64}
	if long {
		soak, shape.Iterations, shape.Scratch, shape.DigestStride = 40, 256, 1<<17, 256
	}
	for seed := int64(1); seed <= max(30, soak); seed++ {
		for _, violate := range []bool{false, true} {
			def := DefaultConfig(seed)
			def.Violate, shape.Seed, shape.Violate = violate, seed, violate
			if seed <= 20 || seed <= 30 && !violate {
				cfgs = append(cfgs, def)
			}
			if seed <= soak {
				cfgs = append(cfgs, shape)
			}
		}
	}
	return cfgs
}

// TrainTrips returns the profiling trip count for cfg: the prefix that
// excludes any planted violation.
func TrainTrips(cfg Config) uint64 { return uint64(cfg.Iterations / 2) }

// Generate builds the random module for cfg. Run the module with a single
// argument: the trip count (cfg.Iterations for the full run).
func Generate(cfg Config) *ir.Module {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := ir.NewModule(fmt.Sprintf("rand%d", cfg.Seed))

	scratch := m.NewGlobal("scratch", cfg.Scratch*8)
	table := m.NewGlobal("table", cfg.ReadOnly*8)
	init := make([]byte, cfg.ReadOnly*8)
	for i := range init {
		init[i] = byte(rng.Intn(256))
	}
	table.Init = init
	sum := m.NewGlobal("sum", 8)
	best := m.NewGlobal("best", 8)
	best.Init = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	out := m.NewGlobal("out", 8)

	// The trip count is a parameter so that profiling can run a prefix of
	// the iteration space (TrainTrips) while measurement runs it all: a
	// planted violation in the second half is then invisible to the
	// profile, exactly the scenario speculation must catch at run time.
	f := m.NewFunc("main", ir.I64)
	n := f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)

	// written tracks which scratch slots the current iteration has already
	// defined, so reads stay iteration-private.
	b.For("i", b.I(0), n, func(iv *ir.Instr) {
		written := []int64{}
		slotAddr := func(k int64) ir.Value {
			if cfg.Spread > 0 {
				idx := b.SRem(b.Add(b.I(k), b.Mul(b.Ld(iv), b.I(cfg.Spread))), b.I(cfg.Scratch))
				return b.Add(b.Global(scratch), b.Mul(idx, b.I(8)))
			}
			return b.Add(b.Global(scratch), b.I(k*8))
		}
		// A value expression over the induction variable, constants, the
		// read-only table and already-written scratch slots.
		var expr func(depth int) ir.Value
		expr = func(depth int) ir.Value {
			choice := rng.Intn(6)
			if depth > 2 {
				choice = rng.Intn(2)
			}
			switch choice {
			case 0:
				return b.I(int64(rng.Intn(100)))
			case 1:
				return b.Ld(iv)
			case 2: // read-only table lookup at i-dependent index
				idx := b.SRem(b.Add(b.Ld(iv), b.I(int64(rng.Intn(5)))), b.I(cfg.ReadOnly))
				return b.Load(b.Add(b.Global(table), b.Mul(idx, b.I(8))), 8)
			case 3: // read a scratch slot written earlier this iteration
				if len(written) == 0 {
					return b.Ld(iv)
				}
				return b.Load(slotAddr(written[rng.Intn(len(written))]), 8)
			case 4:
				return b.Add(expr(depth+1), expr(depth+1))
			default:
				return b.Mul(expr(depth+1), b.I(int64(1+rng.Intn(7))))
			}
		}

		// Guarantee at least one scratch write up front so reductions have
		// private inputs available.
		first := int64(rng.Intn(int(cfg.Scratch)))
		b.Store(expr(0), slotAddr(first), 8)
		written = append(written, first)

		for s := 0; s < cfg.Stmts; s++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // scratch write
				k := int64(rng.Intn(int(cfg.Scratch)))
				b.Store(expr(0), slotAddr(k), 8)
				written = append(written, k)
			case 4, 5: // sum reduction
				addr := b.Global(sum)
				b.Store(b.Add(b.Load(addr, 8), expr(0)), addr, 8)
			case 6: // min reduction
				addr := b.Global(best)
				cur := b.Load(addr, 8)
				v := expr(0)
				b.Store(b.Select(b.SLt(v, cur), v, cur), addr, 8)
			case 7: // short-lived node
				n := b.Malloc("node", b.I(16))
				b.Store(expr(0), n, 8)
				addr := b.Global(sum)
				b.Store(b.Add(b.Load(addr, 8), b.Load(n, 8)), addr, 8)
				b.Free(n)
			case 8: // deferred output
				b.Print("i=%d v=%d\n", b.Ld(iv), expr(0))
			default: // last-value write (privatized, read after loop)
				b.Store(expr(0), b.Global(out), 8)
			}
		}

		if cfg.Violate {
			// Read a slot this iteration has NOT written, but only in the
			// second half of the iteration space: the paper's "profile
			// missed it" scenario. The value read flows from the previous
			// iteration: a true privacy violation.
			unwritten := int64(-1)
			for k := int64(0); k < cfg.Scratch; k++ {
				seen := false
				for _, w := range written {
					if w == k {
						seen = true
					}
				}
				if !seen {
					unwritten = k
					break
				}
			}
			switch {
			case unwritten >= 0 && cfg.ViolateSelect && len(written) > 0:
				// Branch-free variant: in the trained half the Select
				// resolves to a slot this iteration wrote (a sound
				// read-after-write), past the horizon it resolves to the
				// unwritten slot — same load instruction, different target.
				slot := b.Select(b.SLt(b.Ld(iv), b.I(cfg.Iterations/2)),
					b.I(written[0]), b.I(unwritten))
				stale := b.Load(b.Add(b.Global(scratch),
					b.Mul(b.SRem(b.Add(slot, b.Mul(b.Ld(iv), b.I(cfg.Spread))), b.I(cfg.Scratch)), b.I(8))), 8)
				addr := b.Global(out)
				b.Store(b.Add(b.Load(addr, 8), stale), addr, 8)
			case unwritten >= 0:
				b.If(b.SGe(b.Ld(iv), b.I(cfg.Iterations/2)), func() {
					stale := b.Load(slotAddr(unwritten), 8)
					addr := b.Global(out)
					b.Store(b.Add(b.Load(addr, 8), stale), addr, 8)
				}, nil)
			}
		}
	})
	// Deterministic digest of final state.
	stride := cfg.DigestStride
	if stride < 1 {
		stride = 1
	}
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("d", b.I(0), b.I(cfg.Scratch/stride), func(dv *ir.Instr) {
		slot := b.Mul(b.Ld(dv), b.I(stride))
		v := b.Load(b.Add(b.Global(scratch), b.Mul(slot, b.I(8))), 8)
		b.St(b.Add(b.Mul(b.Ld(acc), b.I(31)), v), acc)
	})
	b.St(b.Add(b.Ld(acc), b.Load(b.Global(sum), 8)), acc)
	b.St(b.Add(b.Ld(acc), b.Load(b.Global(best), 8)), acc)
	b.St(b.Add(b.Ld(acc), b.Load(b.Global(out), 8)), acc)
	b.Print("digest %d\n", b.Ld(acc))
	b.Ret(b.Ld(acc))

	if err := ir.Verify(m); err != nil {
		panic(fmt.Sprintf("randprog: generated invalid module (seed %d): %v", cfg.Seed, err))
	}
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}
