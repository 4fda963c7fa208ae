// Reductions: the Reduction Criterion (section 3) admits accumulators
// updated by a single associative, commutative operator. This example
// builds a loop with three reductions — an integer sum, a float sum and an
// integer minimum — plus a histogram array reduction, and shows the runtime
// expanding each into per-worker copies initialized to the operator's
// identity and merged at checkpoints.
//
//	go run ./examples/reduction
package main

import (
	"fmt"
	"log"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/specrt"
)

func buildProgram(n int64) *ir.Module {
	m := ir.NewModule("reduction")
	sum := m.NewGlobal("sum", 8)
	fsum := m.NewGlobal("fsum", 8)
	best := m.NewGlobal("best", 8)
	best.Init = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // MaxInt64
	hist := m.NewGlobal("hist", 16*8)

	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		v := b.Mul(b.Ld(iv), b.Ld(iv))
		// sum += i*i
		sumAddr := b.Global(sum)
		b.Store(b.Add(b.Load(sumAddr, 8), v), sumAddr, 8)
		// fsum += sqrt(i)
		fAddr := b.Global(fsum)
		b.StoreF(b.FAdd(b.LoadF(fAddr), b.Builtin("sqrt", ir.F64, b.SIToFP(b.Ld(iv)))), fAddr)
		// best = min(best, (i-137)^2)
		d := b.Mul(b.Sub(b.Ld(iv), b.I(137)), b.Sub(b.Ld(iv), b.I(137)))
		bAddr := b.Global(best)
		cur := b.Load(bAddr, 8)
		b.Store(b.Select(b.SLt(d, cur), d, cur), bAddr, 8)
		// hist[i%16] += 1 (an array reduction)
		slot := b.Add(b.Global(hist), b.Mul(b.SRem(b.Ld(iv), b.I(16)), b.I(8)))
		b.Store(b.Add(b.Load(slot, 8), b.I(1)), slot, 8)
	})
	b.Ret(b.Load(b.Global(sum), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

func main() {
	const n = 500

	seqVal, _, err := core.RunSequential(buildProgram(n))
	if err != nil {
		log.Fatal(err)
	}

	par, err := core.Parallelize(buildProgram(n), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== heap assignment ===")
	fmt.Print(par.Summary())

	for _, workers := range []int{1, 4, 16} {
		rt, got, err := core.Run(par, specrt.Config{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if got != seqVal {
			status = fmt.Sprintf("MISMATCH (want %d)", seqVal)
		}
		fmt.Printf("workers=%-2d sum=%-12d misspecs=%d  %s\n",
			workers, got, rt.Record.Stats.Misspecs, status)
	}

	// The reduction operators recognized:
	for _, ri := range par.Regions {
		fmt.Println("\nreduction operators:")
		for o, k := range ri.Assign.ReduxOps {
			fmt.Printf("  %-8s via %s\n", o, k)
		}
	}
}
