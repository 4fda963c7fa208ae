// Misspeculation and recovery (sections 5.2-5.3, Figure 5): this example
// injects artificial misspeculation into a parallel run — as the paper does
// for Figure 9 — and shows the runtime squashing the failed checkpoint
// interval, restoring the last valid checkpoint, re-speculating the
// squashed iterations before the misspeculated one, re-executing only that
// iteration sequentially, and resuming parallel execution, all while
// producing exactly the sequential program's output. (The paper instead
// re-executes the whole interval after the last valid checkpoint
// sequentially.)
//
//	go run ./examples/misspeculation
package main

import (
	"fmt"
	"log"

	"privateer/internal/core"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

func main() {
	p := progs.EncMD5()
	in := progs.Input{Name: "demo", N: 24, M: 256}

	_, seqOut, err := core.RunSequential(p.Build(in))
	if err != nil {
		log.Fatal(err)
	}

	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("rate      misspecs  recoveries  recovered-output-correct")
	for _, rate := range []float64{0, 0.10, 0.25} {
		rt, _, err := core.Run(par, specrt.Config{
			Workers:          6,
			CheckpointPeriod: 4,
			MisspecRate:      rate,
			Seed:             7,
		})
		if err != nil {
			log.Fatal(err)
		}
		ok, st := rt.Output() == seqOut, rt.Record.Stats
		fmt.Printf("%-8.2f  %-8d  %-10d  %v\n", rate, st.Misspecs, st.Recoveries, ok)
		if !ok {
			log.Fatal("recovery failed to restore sequential semantics")
		}
	}
	fmt.Println("\nevery run, even with one in four iterations misspeculating,")
	fmt.Println("committed exactly the sequential program's 24 MD5 digests.")
}
