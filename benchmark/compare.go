package main

import (
	"fmt"
	"io"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// byWorkload groups a set's runs.
func byWorkload(rs *ResultSet) map[string][]*Result {
	m := map[string][]*Result{}
	for _, r := range rs.Runs {
		m[r.Workload] = append(m[r.Workload], r)
	}
	return m
}

// values lists one metric's readings over runs; ok is false when no run
// has a reading for it.
func values(runs []*Result, name string) (vs []float64, exact, ok bool) {
	exact = true
	for _, r := range runs {
		m := r.Metrics[name]
		if m.N > 0 {
			ok = true
		}
		exact = exact && m.Exact
		vs = append(vs, m.Value)
	}
	return vs, exact, ok
}

// allBetter reports whether every reading of b beats every reading of a.
func allBetter(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lower && y >= x || !lower && y <= x {
				return false
			}
		}
	}
	return true
}

// compareSets prints one row per workload and bounded metric and checks
// every exact count. It returns false if any row is regressed or
// unresolved, and an error if the two sets are not comparable at all.
func compareSets(w io.Writer, a, b *ResultSet) (bool, error) {
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return false, fmt.Errorf("a result set has no runs")
	}
	ea, eb := a.Runs[0], b.Runs[0]
	for _, r := range append(append([]*Result(nil), a.Runs...), b.Runs...) {
		if r.NumCPU != ea.NumCPU || r.Go != ea.Go || r.Workers != ea.Workers || r.GOMAXPROCS != ea.GOMAXPROCS {
			return false, fmt.Errorf("envelopes differ: %s on %d cpus (gomaxprocs %d, %d workers) against %s on %d cpus (gomaxprocs %d, %d workers)",
				ea.Go, ea.NumCPU, ea.GOMAXPROCS, ea.Workers, r.Go, r.NumCPU, r.GOMAXPROCS, r.Workers)
		}
	}
	fmt.Fprintf(w, "a: commit %s, %d run(s)   b: commit %s, %d run(s)\n", ea.Commit, len(a.Runs), eb.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-15s %-26s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	wa, wb := byWorkload(a), byWorkload(b)
	good := true
	for _, name := range workloadNames {
		ra, rb := wa[name], wb[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, s := range catalogue {
			va, exactA, okA := values(ra, s.name)
			vb, exactB, okB := values(rb, s.name)
			if !okA && !okB {
				continue
			}
			ma, mb := median(va), median(vb)
			if exactA && exactB {
				// An exact count must not move at all, within a side or
				// between the sides; only the bounded ones get a row
				// when they hold.
				same := allEqual(append(append([]float64(nil), va...), vb...))
				verdict := "ok"
				if !same {
					verdict, good = "differs", false
				}
				if !same || s.class != layer {
					fmt.Fprintf(w, "%-15s %-26s %14.6g %14.6g %8s %7s %7s  %s\n", name, s.name, ma, mb, "-", "exact", "-", verdict)
				}
				continue
			}
			if s.class == layer {
				continue
			}
			lower := s.better == "lower"
			worse := mb - ma
			if !lower {
				worse = -worse
			}
			if ma != 0 {
				worse /= ma
			}
			spread := quartileSpread(va)
			if sb := quartileSpread(vb); sb > spread {
				spread = sb
			}
			verdict := "ok"
			switch {
			case spread > s.bound && !allBetter(va, vb, lower):
				verdict, good = "unresolved", false
			case worse > s.bound:
				verdict, good = "regressed", false
			}
			fmt.Fprintf(w, "%-15s %-26s %14.6g %14.6g %+7.1f%% %7g %6.1f%%  %s\n",
				name, s.name, ma, mb, 100*worse, s.bound, 100*spread, verdict)
		}
	}
	return good, nil
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b)
}
