package bench

import (
	"fmt"

	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/specrt"
)

// Table1 renders the paper's qualitative comparison of privatization and
// reduction schemes (Table 1). The matrix is static — it documents where
// Privateer sits relative to prior work; this repository implements the
// Privateer row (and, as its baseline, the "static analysis only" column).
func Table1() string {
	header := []string{"Technique", "Automatic", "Ptr+DynAlloc",
		"Priv.Criterion", "Priv.Layout", "Redux.Criterion", "Redux.Layout"}
	rows := [][]string{
		{"Paralax", "no", "-", "annotations", "-", "-", "-"},
		{"TL2 / Intel STM", "no", "-", "logs", "-", "-", "-"},
		{"PD / LRPD / R-LRPD", "yes", "no", "dynamic/spec", "arrays only", "spec", "arrays only"},
		{"Hybrid Analysis", "yes", "no", "hybrid", "arrays only", "hybrid", "arrays only"},
		{"Array Expansion / ASSA / DSA", "yes", "no", "static", "arrays only", "-", "-"},
		{"STMLite+LLVM", "yes", "yes", "logs", "logs", "static only", "static only"},
		{"CorD+Objects", "yes", "yes", "typed objects", "typed objects", "static only", "static only"},
		{"Privateer (this repo)", "yes", "yes", "speculative", "heap separation", "speculative", "heap separation"},
	}
	return "Table 1: comparison with privatization and reduction schemes\n" +
		obs.Table(header, rows)
}

// Table3Row is one program's dynamic details (the paper's Table 3).
type Table3Row struct {
	// Program is the benchmark's name.
	Program string
	// Invocations counts parallel-region entries (Stats.Invocations).
	Invocations int64
	// Checkpoints counts checkpoint objects built (Stats.Checkpoints).
	Checkpoints int64
	// PrivR is the privacy-checked read volume in bytes.
	PrivR int64
	// PrivW is the privacy-checked write volume in bytes.
	PrivW int64
	// Private counts allocation sites in the private heap, summed over the
	// program's regions, as do the four site counts below.
	Private int
	// ShortLived counts allocation sites in the short-lived heap.
	ShortLived int
	// ReadOnly counts allocation sites in the read-only heap.
	ReadOnly int
	// Redux counts allocation sites in the reduction heap.
	Redux int
	// Unrestrict counts allocation sites in the unrestricted heap.
	Unrestrict int
	// Extras names the extra speculation (value prediction, control, I/O)
	// of the first region that needs any.
	Extras string
}

// Table3Result holds the per-program dynamic details.
type Table3Result struct {
	// Rows holds one row per benchmark, in benchmark order.
	Rows []Table3Row
	// Workers is the worker count used for the measurement run.
	Workers int
}

// Table3 runs every program once and collects the dynamic statistics.
func (s *Suite) Table3() (*Table3Result, error) {
	workers := 4
	res := &Table3Result{Workers: workers}
	for _, pr := range s.programs {
		rec, err := s.runPrivateer(pr, specrt.Config{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", pr.prog.Name, err)
		}
		st := rec.Stats
		row := Table3Row{
			Program:     pr.prog.Name,
			Invocations: st.Invocations,
			Checkpoints: st.Checkpoints,
			PrivR:       st.PrivReadBytes,
			PrivW:       st.PrivWriteBytes,
		}
		for _, ri := range pr.par.Regions {
			st := ri.TStats
			row.Private += st.SitesPerHeap[ir.HeapPrivate]
			row.ShortLived += st.SitesPerHeap[ir.HeapShortLived]
			row.ReadOnly += st.SitesPerHeap[ir.HeapReadOnly]
			row.Redux += st.SitesPerHeap[ir.HeapRedux]
			row.Unrestrict += st.SitesPerHeap[ir.HeapUnrestricted]
			if row.Extras == "" {
				row.Extras = st.Extras(ri.Plan)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders Table 3.
func (r *Table3Result) Format() string {
	header := []string{"Program", "Invoc", "Checkpt", "PrivR", "PrivW",
		"Private", "Short", "ReadOnly", "Redux", "Unrestr", "Extras"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Program,
			fmt.Sprintf("%d", row.Invocations),
			fmt.Sprintf("%d", row.Checkpoints),
			humanBytes(row.PrivR),
			humanBytes(row.PrivW),
			fmt.Sprintf("%d", row.Private),
			fmt.Sprintf("%d", row.ShortLived),
			fmt.Sprintf("%d", row.ReadOnly),
			fmt.Sprintf("%d", row.Redux),
			fmt.Sprintf("%d", row.Unrestrict),
			row.Extras,
		})
	}
	return fmt.Sprintf("Table 3: privatized and parallelized program details (%d workers)\n", r.Workers) +
		obs.Table(header, rows)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// All runs every experiment and concatenates the formatted results.
func (s *Suite) All() (string, error) {
	out := Table1() + "\n"
	t3, err := s.Table3()
	if err != nil {
		return out, err
	}
	out += t3.Format() + "\n"
	f6, err := s.Fig6()
	if err != nil {
		return out, err
	}
	out += f6.Format() + "\n"
	f7, err := s.Fig7()
	if err != nil {
		return out, err
	}
	out += f7.Format() + "\n"
	f8, err := s.Fig8()
	if err != nil {
		return out, err
	}
	out += f8.Format() + "\n"
	f9, err := s.Fig9()
	if err != nil {
		return out, err
	}
	out += f9.Format()
	return out, nil
}
