// Command privateer-dump exposes the compiler's intermediate artifacts for
// one benchmark: the training profile's hot loops, the heap assignment
// (the paper's Figure 4), the speculation plan, and the IR before and after
// the privatizing transformation (the paper's Figure 2).
//
// Usage:
//
//	privateer-dump -prog dijkstra -heaps
//	privateer-dump -prog dijkstra -ir
//	privateer-dump -prog enc-md5 -profile
//	privateer-dump -prog enc-md5 -input huge -pagetable
//	privateer-dump -prog enc-md5 -sep
//	privateer-dump -flight -addr 127.0.0.1:6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/progs"
	"privateer/internal/vm"
)

func main() {
	var (
		progName = flag.String("prog", "dijkstra", "benchmark name")
		input    = flag.String("input", "train", "input class: train, ref, alt, huge")
		showIR   = flag.Bool("ir", false, "dump IR before and after transformation")
		outFile  = flag.String("o", "", "write the untransformed textual IR to a file (runnable via privateer -irfile)")
		heaps    = flag.Bool("heaps", false, "dump the heap assignment (Figure 4)")
		profile  = flag.Bool("profile", false, "dump hot loops and carried dependences")
		ptable   = flag.Bool("pagetable", false, "run the program sequentially and dump radix page-table occupancy and dirty-summary stats")
		elision  = flag.Bool("elision", false, "dump the postprocess pass's per-category elision & promotion counters")
		sep      = flag.Bool("sep", false, "dump the static separation prover's per-region proofs and discharged-machinery counters")
		flight   = flag.Bool("flight", false, "fetch and pretty-print a running region service's flight recorder (/debug/flight)")
		addr     = flag.String("addr", "127.0.0.1:6060", "region service address for -flight")
	)
	flag.Parse()
	if *flight {
		if err := dumpFlight(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "privateer-dump:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*progName, *input, *showIR, *heaps, *profile, *ptable, *elision, *sep, *outFile); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-dump:", err)
		os.Exit(1)
	}
}

// dumpFlight fetches a running service's /debug/flight document and prints
// a postmortem digest: one header line per capture plus its attribution
// rows and phase breakdown.
func dumpFlight(addr string) error {
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + addr + "/debug/flight")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/flight: %s", resp.Status)
	}
	var st obs.FlightState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /debug/flight: %w", err)
	}
	fmt.Printf("flight recorder at %s: %d recorded, %d retained (capacity %d)\n",
		addr, st.Total, st.Retained, st.Capacity)
	for reason, n := range st.ByReason {
		fmt.Printf("  %-10s %d\n", reason, n)
	}
	for _, pm := range st.Postmortems {
		id := pm.JobID
		if id == "" {
			id = "(not admitted)"
		}
		fmt.Printf("\n%s  %s  tenant=%s prog=%s/%s  at %s\n",
			id, pm.Reason, pm.Tenant, pm.Prog, pm.Input,
			time.Unix(0, pm.UnixNS).Format(time.RFC3339))
		if pm.Error != "" {
			fmt.Printf("  error: %s\n", pm.Error)
		}
		if pm.Misspecs > 0 || pm.Fallbacks > 0 {
			fmt.Printf("  misspecs %d, sequential fallbacks %d\n", pm.Misspecs, pm.Fallbacks)
		}
		for _, at := range pm.Attribution {
			fmt.Printf("  x%-6d %-24s %s", at.Count, at.Cause, at.Region)
			if at.Object != "" {
				fmt.Printf("  object %s", at.Object)
			}
			if at.Site != "" {
				fmt.Printf("  @ %s", at.Site)
			}
			fmt.Println()
		}
		for _, ph := range obs.PhaseNames {
			if ns, ok := pm.Phases[ph]; ok {
				fmt.Printf("  phase %-10s %8.3f ms\n", ph, float64(ns)/1e6)
			}
		}
		// A traced job emits at least its queued span, so a postmortem
		// with no event at all is one of a job run untraced.
		if pm.TotalEvents == 0 {
			fmt.Println("  not traced: the job emitted no events")
		} else {
			fmt.Printf("  events captured %d of %d emitted (%d dropped by the ring)\n",
				len(pm.Events), pm.TotalEvents, pm.DroppedEvents)
		}
	}
	return nil
}

// dumpPageTable runs p sequentially and prints the resulting address
// space's radix occupancy: node counts, per-heap resident pages, and the
// dirty-summary state, plus the memory-system counters the run accumulated.
func dumpPageTable(p *progs.Program, in progs.Input) error {
	it := interp.New(p.Build(in), vm.NewAddressSpace())
	if _, err := it.Run(); err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	pt := it.AS.PageTable()
	fmt.Printf("page table of %s (%s): %d levels x %d-way radix\n",
		p.Name, in, pt.Levels, pt.Fanout)
	fmt.Printf("  nodes %d (%d owned), resident pages %d, dirty pages %d\n",
		pt.Nodes, pt.OwnedNodes, pt.ResidentPages, pt.DirtyPages)
	occupancy := float64(pt.ResidentPages) / float64(pt.Nodes*int64(pt.Fanout))
	fmt.Printf("  leaf-slot occupancy %.1f%% (resident pages / node slots)\n", 100*occupancy)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		if n := pt.HeapResident[h]; n > 0 {
			fmt.Printf("  heap %-12s %6d pages (%d KiB)\n", h, n, n*vm.PageSize/1024)
		}
	}
	s := it.AS.Stats
	fmt.Printf("  counters: %d pages mapped, %d pages copied, %d nodes copied, %d summary hits\n",
		s.PagesMapped, s.PagesCopied, s.NodesCopied, s.SummaryHits)
	return nil
}

func run(progName, input string, showIR, heaps, profile, ptable, elision, sep bool, outFile string) error {
	p := progs.ByName(progName)
	if p == nil {
		return fmt.Errorf("unknown program %q", progName)
	}
	in, ok := p.Input(input)
	if !ok {
		return fmt.Errorf("unknown input class %q", input)
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, []byte(ir.FormatModule(p.Build(in))), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s, %s input)\n", outFile, p.Name, in)
		if !showIR && !heaps && !profile && !ptable && !elision && !sep {
			return nil
		}
	}
	if !showIR && !heaps && !profile && !ptable && !elision && !sep {
		heaps = true // default view
	}

	if ptable {
		if err := dumpPageTable(p, in); err != nil {
			return err
		}
		fmt.Println()
	}

	if profile {
		prof, err := profiling.Run(p.Build(in))
		if err != nil {
			return err
		}
		fmt.Printf("profile of %s (%s): %d dynamic instructions\n", p.Name, in, prof.Steps)
		for _, li := range prof.HotLoops() {
			fmt.Printf("  loop %-28s invocations=%-6d iterations=%-8d steps=%d\n",
				li.Loop, li.Invocations, li.Iterations, li.Steps)
			for _, d := range prof.CarriedFlow[li.Loop] {
				fmt.Printf("    carried flow via %-18s x%-8d %s -> %s\n",
					d.Object, d.Count, d.Src.Format(), d.Dst.Format())
			}
		}
		fmt.Println()
	}

	if !showIR && !heaps && !elision && !sep {
		return nil
	}
	var before string
	if showIR {
		before = ir.FormatModule(p.Build(in))
	}
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		return err
	}
	if heaps {
		fmt.Print(par.Summary())
		for _, ri := range par.Regions {
			fmt.Printf("\npredicted locations:\n")
			for _, pl := range ri.Assign.Predictions {
				fmt.Printf("  @%s+%d (%d bytes) == %#x\n",
					pl.Global.Name, pl.Offset, pl.Size, pl.Value)
			}
			st := ri.TStats
			fmt.Printf("transformation: %d separation checks (+%d elided), "+
				"%d/%d privacy read/write checks, %d redux marks, %d predictions, %d cold guards\n",
				st.SeparationChecks, st.SeparationElided,
				st.PrivacyReads, st.PrivacyWrites, st.ReduxMarks, st.Predicts, st.ColdGuards)
		}
	}
	if elision {
		fmt.Printf("postprocess pass of %s (%s):\n", p.Name, in)
		for _, ri := range par.Regions {
			st := ri.TStats
			fmt.Printf("  region %s:\n", ri.Outline.LoopName)
			fmt.Printf("    joined        %6d  (adjacent checks folded into spans)\n", st.Joined)
			fmt.Printf("    eliminated    %6d  (dominated by an equal-address check)\n", st.Eliminated)
			fmt.Printf("    invariant     %6d  (loop-invariant checks hoisted)\n", st.InvPromoted)
			fmt.Printf("    dense         %6d  (affine unit-stride checks promoted to spans)\n", st.DensePromoted)
			fmt.Printf("    sparse        %6d  (affine strided checks promoted to spans)\n", st.SparsePromoted)
			fmt.Printf("    redundant-uo  %6d  (separation checks on a checked underlying object)\n", st.HeapRedundantUO)
			fmt.Printf("    sites: %s\n", st.SitesSummary())
		}
	}
	if sep {
		fmt.Printf("static separation proofs of %s (%s):\n", p.Name, in)
		for _, ri := range par.Regions {
			fmt.Printf("  region %s:\n", ri.Outline.LoopName)
			if ri.Assign.Sep == nil {
				fmt.Println("    (prover did not run)")
				continue
			}
			for _, line := range strings.Split(strings.TrimRight(ri.Assign.Sep.Summary(), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
			fmt.Printf("    %s\n", ri.TStats.SepSummary())
		}
	}
	if showIR {
		fmt.Println("==== IR before transformation ====")
		fmt.Println(before)
		fmt.Println("==== IR after transformation and outlining ====")
		fmt.Println(ir.FormatModule(par.Mod))
	}
	return nil
}
