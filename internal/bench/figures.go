package bench

import (
	"fmt"

	"privateer/internal/core"
	"privateer/internal/obs"
	"privateer/internal/specrt"
)

// Fig6Result holds whole-program simulated speedups over best sequential
// execution for each worker count (the paper's Figure 6).
type Fig6Result struct {
	// WorkerCounts is the sweep.
	WorkerCounts []int
	// Speedups maps program name to one simulated speedup per worker count.
	Speedups map[string][]float64
	// ProgramOrder preserves Table 3 ordering.
	ProgramOrder []string
	// Geomeans is the geometric mean per worker count.
	Geomeans []float64
}

// Fig6 measures speculative speedups across the worker sweep.
func (s *Suite) Fig6() (*Fig6Result, error) {
	res := &Fig6Result{
		WorkerCounts: s.Cfg.WorkerCounts,
		Speedups:     map[string][]float64{},
	}
	for _, pr := range s.programs {
		res.ProgramOrder = append(res.ProgramOrder, pr.prog.Name)
		for _, w := range s.Cfg.WorkerCounts {
			rec, err := s.runPrivateer(pr, specrt.Config{Workers: w})
			if err != nil {
				return nil, fmt.Errorf("fig6 %s workers=%d: %w", pr.prog.Name, w, err)
			}
			res.Speedups[pr.prog.Name] = append(res.Speedups[pr.prog.Name], pr.simSpeedup(rec))
		}
	}
	for i := range s.Cfg.WorkerCounts {
		var xs []float64
		for _, name := range res.ProgramOrder {
			xs = append(xs, res.Speedups[name][i])
		}
		res.Geomeans = append(res.Geomeans, geomean(xs))
	}
	return res, nil
}

// Format renders the figure as a table.
func (r *Fig6Result) Format() string {
	header := []string{"Program"}
	for _, w := range r.WorkerCounts {
		header = append(header, fmt.Sprintf("%dw", w))
	}
	var rows [][]string
	for _, name := range r.ProgramOrder {
		row := []string{name}
		for _, v := range r.Speedups[name] {
			row = append(row, fmt.Sprintf("%.2fx", v))
		}
		rows = append(rows, row)
	}
	gm := []string{"geomean"}
	for _, v := range r.Geomeans {
		gm = append(gm, fmt.Sprintf("%.2fx", v))
	}
	rows = append(rows, gm)
	return "Figure 6: whole-program sim speedup vs best sequential\n" +
		obs.Table(header, rows)
}

// Fig7Result compares DOALL-only against Privateer at the full machine
// size (the paper's Figure 7).
type Fig7Result struct {
	// Workers is the machine size.
	Workers int
	// ProgramOrder preserves ordering.
	ProgramOrder []string
	// DOALLOnly maps program to the DOALL-only build's simulated speedup.
	DOALLOnly map[string]float64
	// Privateer maps program to the speculative build's simulated speedup.
	Privateer map[string]float64
	// StaticLoops counts loops the static baseline parallelized.
	StaticLoops map[string]int
}

// Fig7 measures the enabling effect of Privateer.
func (s *Suite) Fig7() (*Fig7Result, error) {
	res := &Fig7Result{
		Workers:     s.Cfg.FixedWorkers,
		DOALLOnly:   map[string]float64{},
		Privateer:   map[string]float64{},
		StaticLoops: map[string]int{},
	}
	for _, pr := range s.programs {
		res.ProgramOrder = append(res.ProgramOrder, pr.prog.Name)
		doall, _, err := core.Run(pr.static, specrt.Config{Workers: s.Cfg.FixedWorkers})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s doall-only: %w", pr.prog.Name, err)
		}
		res.DOALLOnly[pr.prog.Name] = pr.simSpeedup(doall.Record)
		res.StaticLoops[pr.prog.Name] = len(pr.static.Regions)
		rec, err := s.runPrivateer(pr, specrt.Config{Workers: s.Cfg.FixedWorkers})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s privateer: %w", pr.prog.Name, err)
		}
		res.Privateer[pr.prog.Name] = pr.simSpeedup(rec)
	}
	return res, nil
}

// Geomeans returns (doallOnly, privateer) geometric means.
func (r *Fig7Result) Geomeans() (float64, float64) {
	var a, b []float64
	for _, name := range r.ProgramOrder {
		a = append(a, r.DOALLOnly[name])
		b = append(b, r.Privateer[name])
	}
	return geomean(a), geomean(b)
}

// Format renders the figure.
func (r *Fig7Result) Format() string {
	header := []string{"Program", "DOALL-only sim", "Privateer sim", "static loops"}
	var rows [][]string
	for _, name := range r.ProgramOrder {
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2fx", r.DOALLOnly[name]),
			fmt.Sprintf("%.2fx", r.Privateer[name]),
			fmt.Sprintf("%d", r.StaticLoops[name]),
		})
	}
	ga, gb := r.Geomeans()
	rows = append(rows, []string{"geomean", fmt.Sprintf("%.2fx", ga), fmt.Sprintf("%.2fx", gb), ""})
	return fmt.Sprintf("Figure 7: enabling effect of Privateer at %d workers (sim speedup)\n", r.Workers) +
		obs.Table(header, rows)
}

// Fig8Breakdown is one program × worker-count overhead decomposition,
// normalized to total computational capacity (percent).
type Fig8Breakdown struct {
	// Workers is the run's worker count.
	Workers int
	// UsefulPct is the original program's instructions (SimStats.UsefulSteps).
	UsefulPct float64
	// PrivReadPct is privacy validation of reads.
	PrivReadPct float64
	// PrivWritePct is privacy validation of writes.
	PrivWritePct float64
	// CheckptPct is checkpoint merge, install and commit.
	CheckptPct float64
	// OtherPct is separation checks, predictions and short-lived counting.
	OtherPct float64
	// SpawnJoinPct is capacity lost to spawn, imbalance, join and serial
	// sections (SimStats.IdleCost).
	SpawnJoinPct float64
}

// Fig8Result holds the overhead breakdowns (the paper's Figure 8).
type Fig8Result struct {
	// ProgramOrder preserves ordering.
	ProgramOrder []string
	// Breakdowns maps program to one breakdown per worker count.
	Breakdowns map[string][]Fig8Breakdown
}

// Fig8 measures the overhead decomposition across worker counts.
func (s *Suite) Fig8() (*Fig8Result, error) {
	res := &Fig8Result{Breakdowns: map[string][]Fig8Breakdown{}}
	for _, pr := range s.programs {
		res.ProgramOrder = append(res.ProgramOrder, pr.prog.Name)
		for _, w := range s.Cfg.Fig8Workers {
			rec, err := s.runPrivateer(pr, specrt.Config{Workers: w})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s workers=%d: %w", pr.prog.Name, w, err)
			}
			sim := rec.Sim
			cap := float64(sim.RegionCapacity)
			if cap <= 0 {
				cap = 1
			}
			pct := func(v int64) float64 { return 100 * float64(v) / cap }
			other := sim.OtherCheckCost
			res.Breakdowns[pr.prog.Name] = append(res.Breakdowns[pr.prog.Name], Fig8Breakdown{
				Workers:      w,
				UsefulPct:    pct(sim.UsefulSteps),
				PrivReadPct:  pct(sim.PrivReadCost),
				PrivWritePct: pct(sim.PrivWriteCost),
				CheckptPct:   pct(sim.CheckpointCost),
				OtherPct:     pct(other),
				SpawnJoinPct: pct(sim.IdleCost()),
			})
		}
	}
	return res, nil
}

// Format renders the breakdowns.
func (r *Fig8Result) Format() string {
	var out string
	out += "Figure 8: breakdown of overheads on parallel performance (% of capacity)\n"
	header := []string{"Program", "Workers", "Useful", "PrivR", "PrivW", "Checkpt", "Checks", "Spawn/Join"}
	var rows [][]string
	for _, name := range r.ProgramOrder {
		for _, b := range r.Breakdowns[name] {
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", b.Workers),
				fmt.Sprintf("%.1f%%", b.UsefulPct),
				fmt.Sprintf("%.1f%%", b.PrivReadPct),
				fmt.Sprintf("%.1f%%", b.PrivWritePct),
				fmt.Sprintf("%.1f%%", b.CheckptPct),
				fmt.Sprintf("%.1f%%", b.OtherPct),
				fmt.Sprintf("%.1f%%", b.SpawnJoinPct),
			})
		}
	}
	return out + obs.Table(header, rows)
}

// Fig9Result holds simulated-speedup degradation under injected
// misspeculation (the paper's Figure 9).
type Fig9Result struct {
	// Workers is the machine size.
	Workers int
	// Rates is the injected per-iteration misspeculation probability sweep.
	Rates []float64
	// ProgramOrder preserves ordering.
	ProgramOrder []string
	// Speedups maps program to one simulated speedup per rate.
	Speedups map[string][]float64
	// Misspecs maps program to observed misspeculation counts per rate.
	Misspecs map[string][]int64
}

// Fig9 measures sensitivity to misspeculation.
func (s *Suite) Fig9() (*Fig9Result, error) {
	res := &Fig9Result{
		Workers:  s.Cfg.FixedWorkers,
		Rates:    s.Cfg.MisspecRates,
		Speedups: map[string][]float64{},
		Misspecs: map[string][]int64{},
	}
	for _, pr := range s.programs {
		res.ProgramOrder = append(res.ProgramOrder, pr.prog.Name)
		for _, rate := range s.Cfg.MisspecRates {
			rec, err := s.runPrivateer(pr, specrt.Config{
				Workers: s.Cfg.FixedWorkers, MisspecRate: rate, Seed: 0xC0FFEE,
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s rate=%g: %w", pr.prog.Name, rate, err)
			}
			res.Speedups[pr.prog.Name] = append(res.Speedups[pr.prog.Name], pr.simSpeedup(rec))
			res.Misspecs[pr.prog.Name] = append(res.Misspecs[pr.prog.Name], rec.Stats.Misspecs)
		}
	}
	return res, nil
}

// Format renders the figure.
func (r *Fig9Result) Format() string {
	header := []string{"Program"}
	for _, rate := range r.Rates {
		header = append(header, fmt.Sprintf("%.3g%%", rate*100))
	}
	var rows [][]string
	for _, name := range r.ProgramOrder {
		row := []string{name}
		for i, v := range r.Speedups[name] {
			row = append(row, fmt.Sprintf("%.2fx(%d)", v, r.Misspecs[name][i]))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figure 9: performance degradation with misspeculation at %d workers\n"+
		"(sim speedup, with observed misspeculation count in parentheses)\n", r.Workers) +
		obs.Table(header, rows)
}
