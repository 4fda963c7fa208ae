// The paper's motivating example (Figure 2): dijkstra's outer loop reuses a
// linked-list work queue and a path-cost table, creating false dependences
// between every pair of iterations. This example walks through what the
// pipeline decides — the heap assignment of Figure 4, the value-predicted
// queue pointer, the short-lived list nodes — and verifies that 8-worker
// speculative execution reproduces the sequential output byte for byte.
//
//	go run ./examples/dijkstra
package main

import (
	"fmt"
	"log"

	"privateer/internal/core"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

func main() {
	p := progs.Dijkstra()
	in := p.Train

	// Sequential run: the ground truth.
	_, seqOut, err := core.RunSequential(p.Build(in))
	if err != nil {
		log.Fatal(err)
	}

	// The automatic pipeline.
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== compiler decisions (compare with Figures 2 and 4) ===")
	fmt.Print(par.Summary())
	for _, ri := range par.Regions {
		for _, pl := range ri.Assign.Predictions {
			fmt.Printf("value prediction: @%s+%d is speculated %#x at iteration boundaries\n",
				pl.Global.Name, pl.Offset, pl.Value)
		}
		fmt.Printf("speculation plan: value=%v control=%v io-deferral=%v\n",
			ri.Plan.NeedsValuePrediction, ri.Plan.NeedsControlSpec, ri.Plan.NeedsIODeferral)
	}

	// Parallel run.
	rt, _, err := core.Run(par, specrt.Config{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	st := rt.Record.Stats
	fmt.Println("\n=== runtime (section 5) ===")
	fmt.Printf("checkpoints: %d, misspeculations: %d\n", st.Checkpoints, st.Misspecs)
	fmt.Printf("privacy validation: %d reads (%d bytes), %d writes (%d bytes)\n",
		st.PrivReadChecks, st.PrivReadBytes, st.PrivWriteChecks, st.PrivWriteBytes)
	fmt.Printf("separation checks: %d, deferred output operations: %d\n",
		st.SeparationChecks, st.DeferredIO)

	if rt.Output() != seqOut {
		log.Fatalf("output mismatch!\nparallel:\n%s\nsequential:\n%s", rt.Output(), seqOut)
	}
	fmt.Println("\nparallel output matches sequential output exactly:")
	fmt.Print(rt.Output())
}
