// Quickstart: build a small program with the IR builder, let Privateer
// privatize and parallelize its hot loop automatically, and check that the
// parallel execution matches the sequential one.
//
// The loop reuses a scratch buffer across iterations — a false dependence
// that blocks non-speculative parallelization but that speculative
// privatization removes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// buildProgram returns a module computing, for each of n rows, a polynomial
// over a reused scratch buffer, accumulating a checksum.
func buildProgram(n int64) *ir.Module {
	m := ir.NewModule("quickstart")
	scratch := m.NewGlobal("scratch", 64*8) // reused every iteration
	sum := m.NewGlobal("sum", 8)            // a reduction

	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("row", b.I(0), b.I(n), func(row *ir.Instr) {
		// Fill the scratch buffer (a fresh value set per iteration: the
		// privatization criterion holds even though the storage is shared).
		b.For("i", b.I(0), b.I(64), func(iv *ir.Instr) {
			slot := b.Add(b.Global(scratch), b.Mul(b.Ld(iv), b.I(8)))
			v := b.Add(b.Mul(b.Ld(row), b.I(31)), b.Mul(b.Ld(iv), b.Ld(iv)))
			b.Store(v, slot, 8)
		})
		// Consume it: sum += scratch[row%64] * scratch[(row+7)%64].
		a := b.Load(b.Add(b.Global(scratch), b.Mul(b.SRem(b.Ld(row), b.I(64)), b.I(8))), 8)
		c := b.Load(b.Add(b.Global(scratch),
			b.Mul(b.SRem(b.Add(b.Ld(row), b.I(7)), b.I(64)), b.I(8))), 8)
		sumAddr := b.Global(sum)
		b.Store(b.Add(b.Load(sumAddr, 8), b.Mul(a, c)), sumAddr, 8)
	})
	b.Ret(b.Load(b.Global(sum), 8))

	if err := ir.Verify(m); err != nil {
		log.Fatalf("bad module: %v", err)
	}
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn) // mem2reg: scalars become SSA registers
	}
	return m
}

func main() {
	const n = 200

	// Sequential reference.
	seqVal, _, err := core.RunSequential(buildProgram(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential result: %d\n", seqVal)

	// The fully automatic pipeline: profile -> classify -> select ->
	// transform -> DOALL.
	par, err := core.Parallelize(buildProgram(n), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(par.Summary())

	// Run speculatively with 8 workers.
	rt, parVal, err := core.Run(par, specrt.Config{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel result:   %d  (checkpoints=%d, misspeculations=%d)\n",
		parVal, rt.Record.Stats.Checkpoints, rt.Record.Stats.Misspecs)
	if parVal != seqVal {
		log.Fatal("MISMATCH: speculation broke the program")
	}
	fmt.Println("results match: speculative privatization preserved the semantics")
}
