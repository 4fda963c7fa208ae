package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON pins the contract file to the code:
// same workloads, and every metric with the same unit, direction and
// bound, the gated ones under end_to_end and the rest under per_layer.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	seen := map[string]bool{}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range b.EndToEnd {
		s, ok := specOf(m.Name)
		if !ok || s.class != gated || s.unit != m.Unit || s.better != m.Better || s.bound != m.Bound {
			t.Errorf("end_to_end %+v does not match catalogue entry %+v", m, s)
		}
		seen[m.Name] = true
	}
	for _, m := range b.PerLayer {
		s, ok := specOf(m.Name)
		if !ok || s.class == gated || s.unit != m.Unit || s.better != m.Better {
			t.Errorf("per_layer %+v does not match catalogue entry %+v", m, s)
		}
		seen[m.Name] = true
	}
	for _, s := range catalogue {
		if !seen[s.name] {
			t.Errorf("catalogue metric %s is not in BENCHMARK.json", s.name)
		}
		if !valid.MatchString(s.name) {
			t.Errorf("metric name %q is not a valid name", s.name)
		}
	}
	if len(seen) != len(catalogue) {
		t.Errorf("BENCHMARK.json names %d metrics, the catalogue %d", len(seen), len(catalogue))
	}
}

func smokeRun(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	opt := options{workload: workload, seed: 7, trace: trace, outDir: t.TempDir()}.atSmokeScale()
	res, err := run(opt)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if trace {
		checkTraceFile(t, filepath.Join(opt.outDir, "trace-"+workload+".json"))
	}
	return res
}

// TestSmoke runs all four workloads in-process at the -smoke scale,
// twice, and checks what must hold of any run: nothing failed, every
// catalogue metric named exactly once, the driver's last line carrying
// exactly the set of metrics the contract names for its mode, and every
// exact count identical between the two runs.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			first, second := smokeRun(t, w, true), smokeRun(t, w, true)
			for _, r := range []*Result{first, second} {
				if r.Failed != 0 || r.Attempted == 0 || r.Metrics["failed_share"].Value != 0 || r.exitCode() != 0 {
					t.Fatalf("attempted %d, failed %d, failed_share %v", r.Attempted, r.Failed, r.Metrics["failed_share"].Value)
				}
				if len(r.Metrics) != len(catalogue) {
					t.Errorf("%d metrics emitted, catalogue has %d", len(r.Metrics), len(catalogue))
				}
				for _, s := range catalogue {
					if _, ok := r.Metrics[s.name]; !ok {
						t.Errorf("metric %s not emitted", s.name)
					}
				}
				var line struct{ Metrics map[string]json.RawMessage }
				if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(b.PerLayer) {
					t.Errorf("traced last line has %d metrics, per_layer %d", len(line.Metrics), len(b.PerLayer))
				}
				for _, m := range b.PerLayer {
					if _, ok := line.Metrics[m.Name]; !ok {
						t.Errorf("traced last line lacks %s", m.Name)
					}
				}
			}
			for _, s := range catalogue {
				a, b := first.Metrics[s.name], second.Metrics[s.name]
				if a.Exact && a.N > 0 && a.Value != b.Value {
					t.Errorf("exact metric %s: %v then %v", s.name, a.Value, b.Value)
				}
			}
			for _, name := range []string{"setup_s", "op_ms", "alloc_kb_per_op", "ops_per_s"} {
				if first.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, first.Metrics[name].Value)
				}
			}
		})
	}
}

// TestUntracedLastLine checks the other mode of the contract's last line.
func TestUntracedLastLine(t *testing.T) {
	b := readBenchmarkJSON(t)
	r := smokeRun(t, "compile_cold", false)
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(b.EndToEnd) {
		t.Fatalf("last line %s", r.driverLine())
	}
	for _, m := range b.EndToEnd {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("last line metric %s = %+v", m.Name, got)
		}
	}
}

// TestCorruptReferenceFails flips one expected output and expects the
// gate to count it and the command to exit non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloadNames {
		opt := options{workload: w, seed: 7, outDir: t.TempDir(), corruptRef: true}.atSmokeScale()
		r, err := run(opt)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed == 0 || r.Metrics["failed_share"].Value <= 0 || r.exitCode() == 0 {
			t.Errorf("%s: corrupted reference not caught: failed %d, exit %d", w, r.Failed, r.exitCode())
		}
		if !strings.Contains(r.driverLine(), `"correct":false`) {
			t.Errorf("%s: last line %s", w, r.driverLine())
		}
	}
}

// checkTraceFile checks the Chrome trace the traced pass wrote: every
// span lies inside its parent, and children of one parent do not overlap.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("%s has no events", path)
	}
	byThread := map[int]map[int]chromeEvent{}
	for _, e := range tr.TraceEvents {
		if byThread[e.TID] == nil {
			byThread[e.TID] = map[int]chromeEvent{}
		}
		byThread[e.TID][e.Args["id"]] = e
	}
	const slackUS = 0.002 // ts and dur are rounded to nanoseconds apart
	for _, events := range byThread {
		covered := map[int]float64{}
		for _, e := range events {
			if !strings.Contains(e.Name, ".") {
				t.Errorf("span name %q is not <layer>.<call>", e.Name)
			}
			p, ok := events[e.Args["parent"]]
			if !ok {
				continue
			}
			if e.TS < p.TS-slackUS || e.TS+e.Dur > p.TS+p.Dur+slackUS || e.Args["op"] != p.Args["op"] {
				t.Errorf("span %s [%v +%v] escapes parent %s [%v +%v]", e.Name, e.TS, e.Dur, p.Name, p.TS, p.Dur)
			}
			covered[e.Args["parent"]] += e.Dur
		}
		for id, c := range covered {
			if p := events[id]; c > p.Dur+slackUS*10 {
				t.Errorf("children of %s cover %v us of its %v us", p.Name, c, p.Dur)
			}
		}
	}
}

// TestSelfTime checks self time on a hand-built tree: an op with two
// calls, the second of which makes a nested call.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op.x", Start: 0, End: 100, Parent: -1},
		{Name: "a.f", Start: 10, End: 30, Parent: 0},
		{Name: "b.g", Start: 40, End: 90, Parent: 0},
		{Name: "c.h", Start: 50, End: 70, Parent: 2},
		{Name: "op.y", Start: 100, End: 110, Parent: -1, Op: 1},
	}
	want := []int64{30, 20, 30, 20, 10}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		if spans[i].Op == 0 {
			sum += got[i]
		}
	}
	if sum != 100 {
		t.Errorf("self times of op 0 sum to %d, want the op's 100", sum)
	}
	if share := rootSelfShare(spans); share != 1 {
		t.Errorf("rootSelfShare = %v, want 1 (op.y has no children)", share)
	}
	if share := rootSelfShare(spans[:4]); share != 0.3 {
		t.Errorf("rootSelfShare = %v, want 0.3", share)
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.end(off.begin("a.b", 0)) // a nil recorder records nothing and does not crash
	r := newRecorder(time.Now(), 1)
	root := r.begin("op.x", 3)
	child := r.begin("a.f", 3)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[1].Op != 3 {
		t.Errorf("spans %+v", r.spans)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); got != 1 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartileSpread([]float64{1, 2}); got != 1 {
		t.Errorf("quartileSpread of two = %v, want 1", got)
	}
}

// result builds a synthetic run for the compare tests.
func result(workload string, values map[string]float64) *Result {
	r := &Result{Schema: schema, Go: "go1", NumCPU: 2, GOMAXPROCS: 2, Workers: 2,
		Workload: workload, Metrics: map[string]Metric{}}
	for name, v := range values {
		s, _ := specOf(name)
		r.Metrics[name] = Metric{Value: v, Unit: s.unit, Better: s.better, N: 1, Bound: s.bound, Exact: s.exact}
	}
	return r
}

func TestCompare(t *testing.T) {
	set := func(runs ...*Result) *ResultSet { return &ResultSet{Schema: schema, Runs: runs} }
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	base := map[string]float64{"op_ms": 100, "wall_speedup": 0.7, "sim_speedup": 9.5, "specrt.checkpoints": 60}

	var buf bytes.Buffer
	ok, err := compareSets(&buf, set(result("region_ref", base)), set(result("region_ref",
		map[string]float64{"op_ms": 105, "wall_speedup": 0.5, "sim_speedup": 9.5, "specrt.checkpoints": 61})))
	if err != nil || ok {
		t.Fatalf("ok %v err %v\n%s", ok, err, buf.String())
	}
	for metric, want := range map[string]string{"op_ms": "ok", "wall_speedup": "regressed",
		"sim_speedup": "ok", "specrt.checkpoints": "differs"} {
		if got := verdictOf(buf.String(), metric); got != want {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got, want, buf.String())
		}
	}

	// Runs of one side that disagree by more than the bound leave the
	// row unresolved, unless every run of b beats every run of a.
	noisy := func(vs ...float64) *ResultSet {
		var runs []*Result
		for _, v := range vs {
			runs = append(runs, result("region_ref", map[string]float64{"op_ms": v}))
		}
		return set(runs...)
	}
	buf.Reset()
	if ok, _ := compareSets(&buf, noisy(80, 100, 120, 140), noisy(90, 100, 110, 150)); ok || verdictOf(buf.String(), "op_ms") != "unresolved" {
		t.Errorf("want unresolved\n%s", buf.String())
	}
	buf.Reset()
	if ok, _ := compareSets(&buf, noisy(80, 100, 120, 140), noisy(40, 50, 60, 70)); !ok || verdictOf(buf.String(), "op_ms") != "ok" {
		t.Errorf("want ok\n%s", buf.String())
	}

	other := result("region_ref", base)
	other.NumCPU = 8
	if _, err := compareSets(&buf, set(result("region_ref", base)), set(other)); err == nil {
		t.Error("differing envelopes compared without error")
	}
}
