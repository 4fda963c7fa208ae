package bench

import (
	"os"
	"strings"
	"testing"
)

// quickSuite is shared across tests (compilation is the expensive part).
var quickSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if quickSuite == nil {
		s, err := NewSuite(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		quickSuite = s
	}
	return quickSuite
}

// TestUnknownInputClassRejected: a mistyped input class or program name
// must fail every entry point that takes one, naming the bad value, before
// anything runs — instead of running ref inputs under the typo's label or
// printing an empty table.
func TestUnknownInputClassRejected(t *testing.T) {
	badInput, badProg := QuickConfig(), QuickConfig()
	badInput.Input = "hgue"
	badProg.Programs = []string{"dijkstra", "nosuch"}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"input", badInput, `"hgue"`},
		{"program", badProg, `"nosuch"`},
	} {
		_, suiteErr := NewSuite(tc.cfg)
		_, variantErr := RunVariant(tc.cfg, "elision")
		errs := map[string]error{"NewSuite": suiteErr, "RunVariant": variantErr}
		if tc.name == "program" {
			// The value-prediction ablation always uses train inputs.
			_, errs["AblationValuePrediction"] = AblationValuePrediction(tc.cfg)
		}
		for entry, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s with bad %s: error %v, want one naming %s", entry, tc.name, err, tc.want)
			}
		}
	}
}

// TestQuickReportGolden pins the rendered report — Suite.All up to Figure 9
// — for two inputs: QuickConfig (train inputs, 1–8 workers) to
// testdata/quick_report.golden and DefaultConfig (ref inputs, 1–24 workers,
// the report privateer-bench prints by default) to
// testdata/full_report.golden. The package holds no clock, so the text is
// the same on every host, at every GOMAXPROCS and, for the quick report,
// under the race detector; the full sweep skips itself there, as the
// instrumented interpreter is several times slower. Figure 9 is excluded:
// which iterations an injected misspeculation squashes depends on worker
// scheduling, so its nonzero-rate columns move run to run (EXPERIMENTS.md,
// "Figure 9"); TestFig9Degrades asserts its shape instead. Regenerate for
// an intended change to the cost model or a label with
//
//	go test ./internal/bench -run TestQuickReportGolden -update-golden
func TestQuickReportGolden(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		checkReportGolden(t, suite(t), "testdata/quick_report.golden")
	})
	t.Run("full", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the ref-input sweep is too slow under the race detector")
		}
		s, err := NewSuite(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkReportGolden(t, s, "testdata/full_report.golden")
	})
}

// checkReportGolden compares s's report up to Figure 9 with the golden file
// at path, or rewrites the file under -update-golden.
func checkReportGolden(t *testing.T, s *Suite, path string) {
	t.Helper()
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	got, _, hasFig9 := strings.Cut(all, "Figure 9:")
	if !hasFig9 {
		t.Fatal("report has no Figure 9 to cut at")
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	t.Errorf("%s moved at line %d of %d (golden has %d); from there:\n--- got\n%s\n--- want\n%s",
		path, i+1, len(gotLines), len(wantLines),
		strings.Join(gotLines[i:], "\n"), strings.Join(wantLines[i:], "\n"))
}

func TestTable1Static(t *testing.T) {
	tab := Table1()
	for _, want := range []string{"Privateer (this repo)", "heap separation", "LRPD"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	r, err := suite(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	byName := map[string]Table3Row{}
	for _, row := range r.Rows {
		byName[row.Program] = row
	}
	// Paper-shape assertions.
	if row := byName["052.alvinn"]; row.Redux != 3 || row.Private != 4 || row.ShortLived != 0 {
		t.Errorf("alvinn row off: %+v", row)
	}
	if row := byName["dijkstra"]; row.ShortLived != 1 || !strings.Contains(row.Extras, "Value") {
		t.Errorf("dijkstra row off: %+v", row)
	}
	if row := byName["enc-md5"]; row.Private != 2 || row.ReadOnly != 4 {
		t.Errorf("enc-md5 row off: %+v", row)
	}
	for _, row := range r.Rows {
		if row.Invocations < 1 || row.Checkpoints < 1 {
			t.Errorf("%s: no runtime activity: %+v", row.Program, row)
		}
	}
	if !strings.Contains(r.Format(), "Table 3") {
		t.Error("format header missing")
	}
}

func TestFig6And7Shapes(t *testing.T) {
	s := suite(t)
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Geomeans) != len(s.Cfg.WorkerCounts) {
		t.Fatalf("geomeans = %d", len(f6.Geomeans))
	}
	// More workers must help overall on the sweep's low end: geomean at
	// the largest count exceeds the 1-worker geomean.
	if f6.Geomeans[len(f6.Geomeans)-1] <= f6.Geomeans[0] {
		t.Errorf("no scaling: geomeans %v", f6.Geomeans)
	}
	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	doall, priv := f7.Geomeans()
	if priv <= doall {
		t.Errorf("Privateer (%.2fx) must beat DOALL-only (%.2fx)", priv, doall)
	}
	// The per-program paper stories.
	if f7.DOALLOnly["dijkstra"] > 1.01 {
		t.Errorf("dijkstra DOALL-only should not speed up: %.2fx", f7.DOALLOnly["dijkstra"])
	}
	if f7.Privateer["dijkstra"] <= f7.DOALLOnly["dijkstra"] {
		t.Error("privatization must enable dijkstra")
	}
}

func TestFig8CapacityAccounting(t *testing.T) {
	r, err := suite(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for name, bds := range r.Breakdowns {
		for _, b := range bds {
			total := b.UsefulPct + b.PrivReadPct + b.PrivWritePct +
				b.CheckptPct + b.OtherPct + b.SpawnJoinPct
			if total < 95 || total > 105 {
				t.Errorf("%s workers=%d: capacity categories sum to %.1f%%", name, b.Workers, total)
			}
			if b.UsefulPct <= 0 {
				t.Errorf("%s workers=%d: no useful work", name, b.Workers)
			}
		}
	}
}

func TestFig9Degrades(t *testing.T) {
	r, err := suite(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.ProgramOrder {
		sp := r.Speedups[name]
		ms := r.Misspecs[name]
		if ms[0] != 0 {
			t.Errorf("%s: misspecs at rate 0: %d", name, ms[0])
		}
		last := len(sp) - 1
		if ms[last] > 0 && sp[last] >= sp[0] {
			t.Errorf("%s: misspeculation did not degrade: %v (misspecs %v)", name, sp, ms)
		}
	}
}

func TestAblationValuePrediction(t *testing.T) {
	r, err := AblationValuePrediction(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ValuePredAblationRow{}
	for _, row := range r.Rows {
		byName[row.Program] = row
	}
	d := byName["dijkstra"]
	if !d.HotWith || d.HotWithout {
		t.Errorf("dijkstra: hot loop with=%v without=%v, want true/false", d.HotWith, d.HotWithout)
	}
	if d.CoverageWithout >= d.CoverageWith {
		t.Errorf("dijkstra coverage should collapse without VP: %.0f%% vs %.0f%%",
			d.CoverageWith, d.CoverageWithout)
	}
	if md5 := byName["enc-md5"]; !md5.HotWith || !md5.HotWithout {
		t.Error("enc-md5 does not need value prediction")
	}
}

func TestAblationElision(t *testing.T) {
	cfg := QuickConfig()
	cfg.Programs = []string{"dijkstra"}
	r, err := RunVariant(cfg, "ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Programs) != 1 {
		t.Fatalf("rows = %d", len(r.Programs))
	}
	row := r.Programs[0]
	if row.BeforeChecks <= row.AfterChecks {
		t.Errorf("disabling elision must add checks: %d vs %d", row.BeforeChecks, row.AfterChecks)
	}
	if row.EndToEndBefore > row.EndToEnd {
		t.Errorf("extra checks should not speed things up: %.2f vs %.2f",
			row.EndToEndBefore, row.EndToEnd)
	}
	if row.Workers != cfg.FixedWorkers {
		t.Errorf("ablation ran at %d workers, want the paper machine's %d", row.Workers, cfg.FixedWorkers)
	}
	if !strings.Contains(r.Format(), "elided") {
		t.Error("format misses the static counter column")
	}
}

func TestAblationCheckpointPeriod(t *testing.T) {
	s := suite(t)
	r, err := s.AblationCheckpointPeriod("dijkstra", []int64{1, 4, 16}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Clean speedup improves (or at worst holds) with longer periods:
	// fewer merges.
	if r.Rows[0].CleanSpeedup > r.Rows[2].CleanSpeedup {
		t.Errorf("per-iteration checkpoints should not beat long periods: %+v", r.Rows)
	}
	if !strings.Contains(r.Format(), "checkpoint period") {
		t.Error("format header missing")
	}
}
