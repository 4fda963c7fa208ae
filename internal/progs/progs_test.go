package progs

import (
	"crypto/md5"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// seqMatchesReference checks the interpreted IR program against the native
// reference on the given input.
func seqMatchesReference(t *testing.T, p *Program, in Input) {
	t.Helper()
	wantVal, wantOut := p.Reference(in)
	gotVal, gotOut, err := core.RunSequential(p.Build(in))
	if err != nil {
		t.Fatalf("%s %s: sequential run: %v", p.Name, in, err)
	}
	if !outputsMatch(p, gotOut, wantOut) {
		t.Fatalf("%s %s output mismatch:\n got: %s\nwant: %s", p.Name, in,
			clip(gotOut), clip(wantOut))
	}
	if !valuesMatch(p, gotVal, wantVal) {
		t.Fatalf("%s %s result %#x, want %#x", p.Name, in, gotVal, wantVal)
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// outputsMatch compares printed output; for float-result programs numeric
// tokens compare with relative tolerance, since parallel reduction merges
// reassociate floating-point sums (as in the paper's runtime).
func outputsMatch(p *Program, got, want string) bool {
	if got == want {
		return true
	}
	if !p.FloatResult {
		return false
	}
	gt := strings.Fields(got)
	wt := strings.Fields(want)
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		g, errG := strconv.ParseFloat(gt[i], 64)
		w, errW := strconv.ParseFloat(wt[i], 64)
		if errG != nil || errW != nil {
			return false
		}
		if math.Abs(g-w) > 1e-9*(math.Abs(w)+1) {
			return false
		}
	}
	return true
}

func valuesMatch(p *Program, got, want uint64) bool {
	if !p.FloatResult {
		return got == want
	}
	g, w := math.Float64frombits(got), math.Float64frombits(want)
	if g == w {
		return true
	}
	return math.Abs(g-w) <= 1e-9*(math.Abs(w)+1)
}

func TestSequentialMatchesReference(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			seqMatchesReference(t, p, p.Train)
			seqMatchesReference(t, p, p.Alt)
		})
	}
}

func TestMD5AgainstCryptoMD5(t *testing.T) {
	r := newLCG(99)
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 200, 1024, 1000} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(r.next())
		}
		got := RefMD5Digest(msg)
		sum := md5.Sum(msg)
		var want [4]uint32
		for i := 0; i < 4; i++ {
			want[i] = binary.LittleEndian.Uint32(sum[i*4:])
		}
		if got != want {
			t.Errorf("len %d: digest %x, want %x", n, got, want)
		}
	}
}

// parallelizeTrain runs the pipeline with the program's train input.
func parallelizeTrain(t *testing.T, p *Program, in Input) *core.Parallelized {
	t.Helper()
	m := p.Build(in)
	par, err := core.Parallelize(m, core.Options{})
	if err != nil {
		t.Fatalf("%s: Parallelize: %v", p.Name, err)
	}
	if len(par.Regions) == 0 {
		t.Fatalf("%s: no region selected:\n%s", p.Name, par.Summary())
	}
	return par
}

func TestPipelineSelectsHotLoop(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			par := parallelizeTrain(t, p, p.Train)
			if len(par.Regions) != 1 {
				t.Errorf("selected %d regions, want 1:\n%s", len(par.Regions), par.Summary())
			}
		})
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			in := p.Train
			wantVal, wantOut := p.Reference(in)
			par := parallelizeTrain(t, p, in)
			for _, workers := range []int{2, 4} {
				rt, gotVal, err := core.Run(par, specrt.Config{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rt.Stats.Misspecs != 0 {
					t.Errorf("workers=%d: %d misspeculations on the train input",
						workers, rt.Stats.Misspecs)
				}
				if gotOut := rt.Output(); !outputsMatch(p, gotOut, wantOut) {
					t.Fatalf("workers=%d output mismatch:\n got: %s\nwant: %s",
						workers, clip(gotOut), clip(wantOut))
				}
				if !valuesMatch(p, gotVal, wantVal) {
					t.Errorf("workers=%d result %#x, want %#x", workers, gotVal, wantVal)
				}
			}
		})
	}
}

func TestParallelRefInput(t *testing.T) {
	if testing.Short() {
		t.Skip("ref inputs in -short mode")
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			in := p.Ref
			wantVal, wantOut := p.Reference(in)
			// Profile on train, measure on ref: the paper's methodology.
			// Program builders bake the input into the module, so the ref
			// module is profiled with its own (ref) execution; stability
			// across inputs is validated by TestProfileStability below.
			par := parallelizeTrain(t, p, in)
			rt, gotVal, err := core.Run(par, specrt.Config{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if gotOut := rt.Output(); !outputsMatch(p, gotOut, wantOut) {
				t.Fatalf("output mismatch:\n got: %s\nwant: %s", clip(gotOut), clip(wantOut))
			}
			if !valuesMatch(p, gotVal, wantVal) {
				t.Errorf("result %#x, want %#x", gotVal, wantVal)
			}
		})
	}
}

// TestProfileStability mirrors the paper's observation that profiling with
// train and alt inputs yields the same compiler decisions: the same loops
// selected and the same heap kinds per global.
func TestProfileStability(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			a := parallelizeTrain(t, p, p.Train)
			b := parallelizeTrain(t, p, p.Alt)
			if len(a.Regions) != len(b.Regions) {
				t.Fatalf("train selected %d regions, alt %d", len(a.Regions), len(b.Regions))
			}
			ha := globalHeaps(a)
			hb := globalHeaps(b)
			for g, h := range ha {
				if hb[g] != h {
					t.Errorf("global %s: train=%s alt=%s", g, h, hb[g])
				}
			}
		})
	}
}

func globalHeaps(par *core.Parallelized) map[string]ir.HeapKind {
	out := map[string]ir.HeapKind{}
	for _, ri := range par.Regions {
		for _, oh := range ri.Assign.Objects() {
			if oh.Object.Global != nil {
				out[oh.Object.Global.Name] = oh.Heap
			}
		}
	}
	return out
}

// TestHeapAssignmentShapes checks the Table 3-style classification per
// program.
func TestHeapAssignmentShapes(t *testing.T) {
	expect := map[string]map[string]ir.HeapKind{
		"dijkstra": {
			"pathcost": ir.HeapPrivate,
			"Q":        ir.HeapPrivate,
			"adj":      ir.HeapReadOnly,
		},
		"blackscholes": {
			"chkerr":   ir.HeapPrivate,
			"sptprice": ir.HeapReadOnly,
			"otype":    ir.HeapReadOnly,
		},
		"swaptions": {
			"simerr":  ir.HeapPrivate,
			"factors": ir.HeapReadOnly,
		},
		"052.alvinn": {
			"sumdw1":  ir.HeapRedux,
			"sumdw2":  ir.HeapRedux,
			"toterr":  ir.HeapRedux,
			"w1":      ir.HeapReadOnly,
			"w2":      ir.HeapReadOnly,
			"inputs":  ir.HeapReadOnly,
			"targets": ir.HeapReadOnly,
		},
		"enc-md5": {
			"mdstate": ir.HeapPrivate,
			"padbuf":  ir.HeapPrivate,
			"data":    ir.HeapReadOnly,
			"Ttab":    ir.HeapReadOnly,
			"lengths": ir.HeapReadOnly,
			"offsets": ir.HeapReadOnly,
		},
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			par := parallelizeTrain(t, p, p.Train)
			heaps := globalHeaps(par)
			for g, want := range expect[p.Name] {
				if heaps[g] != want {
					t.Errorf("global %s in %s heap, want %s\n%s",
						g, heaps[g], want, par.Regions[0].Assign)
				}
			}
		})
	}
}

// TestExtrasColumns checks the speculation kinds per program against
// Table 3's Extras column (this reproduction may add I/O deferral where a
// cold path prints).
func TestExtrasColumns(t *testing.T) {
	wantValue := map[string]bool{"dijkstra": true, "blackscholes": true, "swaptions": true}
	wantControl := map[string]bool{"dijkstra": true, "swaptions": true, "enc-md5": true}
	wantIO := map[string]bool{"dijkstra": true, "enc-md5": true}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			par := parallelizeTrain(t, p, p.Train)
			plan := par.Regions[0].Plan
			if wantValue[p.Name] && !plan.NeedsValuePrediction {
				t.Error("value prediction missing")
			}
			if wantControl[p.Name] && !plan.NeedsControlSpec {
				t.Error("control speculation missing")
			}
			if wantIO[p.Name] && !plan.NeedsIODeferral {
				t.Error("I/O deferral missing")
			}
			if p.Name == "052.alvinn" {
				if plan.NeedsValuePrediction || plan.NeedsIODeferral {
					t.Error("alvinn should need no extra speculation")
				}
			}
		})
	}
}

// TestShortLivedSites checks that the expected allocation sites land in the
// short-lived heap.
func TestShortLivedSites(t *testing.T) {
	wantSites := map[string][]string{
		"dijkstra":  {"node"},
		"swaptions": {"path_matrix", "path_row", "disc_row", "payoff_vec"},
		"enc-md5":   {"digest"},
	}
	for _, p := range All() {
		want := wantSites[p.Name]
		if len(want) == 0 {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			par := parallelizeTrain(t, p, p.Train)
			short := map[string]bool{}
			for o := range par.Regions[0].Assign.ShortLived {
				if o.Site != nil {
					short[o.Site.Name] = true
				}
			}
			for _, name := range want {
				if !short[name] {
					t.Errorf("site %q not short-lived (have %v)", name, keys(short))
				}
			}
		})
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestByNameAndInputString(t *testing.T) {
	if ByName("dijkstra") == nil || ByName("enc-md5") == nil {
		t.Error("ByName lookup failed")
	}
	if ByName("nope") != nil {
		t.Error("ByName invented a program")
	}
	if !strings.Contains(Dijkstra().Train.String(), "train") {
		t.Error("Input.String missing name")
	}
}

// TestByNameAllocatesNothing: the region service looks a program up once per
// job, so ByName reads a table built once instead of building the five
// descriptors per call; All still hands each caller a slice of its own.
func TestByNameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations defeat AllocsPerRun")
	}
	var p *Program
	if allocs := testing.AllocsPerRun(100, func() { p = ByName("enc-md5") }); allocs != 0 {
		t.Errorf("ByName allocates %.0f objects per call, want 0", allocs)
	}
	if p == nil || p != ByName("enc-md5") {
		t.Fatalf("ByName(enc-md5) = %p, then %p; want one shared descriptor", p, ByName("enc-md5"))
	}
	a := All()
	a[0] = nil
	if b := All(); b[0] == nil || len(b) != 5 {
		t.Errorf("a caller's write to All's slice reached the next caller: %v", b)
	}
}

// TestInputClassLookup: Program.Input resolves the four class names to the
// matching fields and rejects everything else, including the empty name and
// near-miss spellings.
func TestInputClassLookup(t *testing.T) {
	p := Dijkstra()
	for _, tc := range []struct {
		name string
		want Input
		ok   bool
	}{
		{"train", p.Train, true},
		{"ref", p.Ref, true},
		{"alt", p.Alt, true},
		{"huge", p.Huge, true},
		{"", Input{}, false},
		{"hgue", Input{}, false},
		{"Ref", Input{}, false},
	} {
		got, ok := p.Input(tc.name)
		if ok != tc.ok || got != tc.want {
			t.Errorf("Input(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestIRTextRoundTrip: every benchmark program formats to textual IR,
// parses back, formats identically (fixpoint), and executes identically.
func TestIRTextRoundTrip(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build(p.Train)
			text := ir.FormatModule(m)
			m2, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if again := ir.FormatModule(m2); again != text {
				i := 0
				for i < len(text) && i < len(again) && text[i] == again[i] {
					i++
				}
				lo := i - 100
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("format not a fixpoint near offset %d:\n--- once ---\n...%s\n--- twice ---\n...%s",
					i, clip(text[lo:]), clip(again[lo:]))
			}
			wantVal, wantOut, err := core.RunSequential(m)
			if err != nil {
				t.Fatal(err)
			}
			gotVal, gotOut, err := core.RunSequential(m2)
			if err != nil {
				t.Fatalf("parsed module run: %v", err)
			}
			if gotVal != wantVal || gotOut != wantOut {
				t.Errorf("parsed module diverges: %#x vs %#x", gotVal, wantVal)
			}
		})
	}
}

// TestOptimizedEquivalence: the mid-end optimizer must preserve each
// benchmark's sequential behaviour, and the optimized module must still
// flow through the full speculative pipeline.
func TestOptimizedEquivalence(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			wantVal, wantOut, err := core.RunSequential(p.Build(p.Train))
			if err != nil {
				t.Fatal(err)
			}
			m := p.Build(p.Train)
			before := countInstrs(m)
			ir.OptimizeModule(m)
			after := countInstrs(m)
			if after >= before {
				t.Errorf("optimizer did not shrink %s: %d -> %d", p.Name, before, after)
			}
			gotVal, gotOut, err := core.RunSequential(m)
			if err != nil {
				t.Fatalf("optimized run: %v", err)
			}
			if gotVal != wantVal || gotOut != wantOut {
				t.Fatalf("optimized module diverges: %#x vs %#x", gotVal, wantVal)
			}
			// The optimized module must still parallelize and agree.
			m2 := p.Build(p.Train)
			ir.OptimizeModule(m2)
			par, err := core.Parallelize(m2, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Regions) == 0 {
				t.Fatalf("optimized %s lost its region:\n%s", p.Name, par.Summary())
			}
			rt, parVal, err := core.Run(par, specrt.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !valuesMatch(p, parVal, wantVal) || !outputsMatch(p, rt.Output(), wantOut) {
				t.Errorf("optimized parallel run diverges (misspecs=%d)", rt.Stats.Misspecs)
			}
		})
	}
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.SortedFuncs() {
		f.Instrs(func(*ir.Instr) { n++ })
	}
	return n
}
