package profiling

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/randprog"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/profile_digests.txt from this build's profiler")

const digestFile = "testdata/profile_digests.txt"

// dumper names instructions and objects by position (function, block index,
// index in block) so a dump compares across two builds of one module.
type dumper struct {
	pos map[*ir.Instr]string
}

func newDumper(m *ir.Module) *dumper {
	d := &dumper{pos: map[*ir.Instr]string{}}
	for _, f := range m.SortedFuncs() {
		for bi, b := range f.Blocks {
			for i, in := range b.Instrs {
				d.pos[in] = fmt.Sprintf("%s/%d/%d", f.Name, bi, i)
			}
		}
	}
	return d
}

func (d *dumper) obj(o Object) string {
	switch {
	case o.Global != nil:
		return "@" + o.Global.Name
	case o.Site != nil:
		return d.pos[o.Site]
	}
	return "<none>"
}

func (d *dumper) set(s ObjectSet) string {
	var names []string
	for o := range s {
		names = append(names, d.obj(o))
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// dumpProfile renders every field of p as sorted text. CarriedFlow is
// rendered as a set: its order is pinned by TestCarriedFlowOrder.
func dumpProfile(p *Profile) string {
	d := newDumper(p.Mod)
	var out []string
	add := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	add("steps %d loops %d", p.Steps, len(p.AllLoops))
	for _, l := range p.AllLoops {
		name := fmt.Sprintf("loop %s/%d", l.Header.Fn.Name, l.Header.Index)
		li := p.Loops[l]
		add("%s depth=%d inv=%d iter=%d steps=%d", name, l.Depth, li.Invocations, li.Iterations, li.Steps)
		add("%s allocated %s", name, d.set(p.AllocatedIn[l]))
		add("%s violations %s", name, d.set(p.ShortLivedViolations[l]))
		for _, dep := range p.CarriedFlow[l] {
			add("%s dep %s -> %s via %s x%d", name, d.pos[dep.Src], d.pos[dep.Dst], d.obj(dep.Object), dep.Count)
		}
		for in, cr := range p.CarriedReads[l] {
			add("%s carried-read %s addr=%#x val=%#x size=%d obj=%s off=%d stable=%v x%d",
				name, d.pos[in], cr.Addr, cr.Value, cr.Size, d.obj(cr.Object), cr.Offset, cr.Stable, cr.Count)
		}
	}
	for in, set := range p.PointsTo {
		add("points-to %s {%s}", d.pos[in], d.set(set))
	}
	for in, ci := range p.LoadConst {
		add("load-const %s val=%#x stable=%v x%d", d.pos[in], ci.Value, ci.Stable, ci.Count)
	}
	for b, n := range p.BlockRuns {
		if n != 0 {
			add("block %s/%d x%d", b.Fn.Name, b.Index, n)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

type digestCase struct {
	name  string
	build func() (*ir.Module, []uint64)
}

func digestCases() []digestCase {
	var cases []digestCase
	for _, p := range progs.All() {
		for _, input := range []string{"train", "alt"} {
			p, in := p, input
			cases = append(cases, digestCase{p.Name + "/" + in, func() (*ir.Module, []uint64) {
				inp, _ := p.Input(in)
				return p.Build(inp), nil
			}})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := randprog.DefaultConfig(seed)
		cases = append(cases, digestCase{fmt.Sprintf("rand%d", seed), func() (*ir.Module, []uint64) {
			return randprog.Generate(cfg), []uint64{randprog.TrainTrips(cfg)}
		}})
	}
	return cases
}

// TestProfileDigests pins every field of the Profile of the five programs
// (train and alt) and forty random programs to digests recorded from the
// map-based profiler this one replaced. Both executors must reproduce them.
func TestProfileDigests(t *testing.T) {
	var got []string
	for _, c := range digestCases() {
		mod, args := c.build()
		p, err := Run(mod, args...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, fmt.Sprintf("%s %x", c.name, sha256.Sum256([]byte(dumpProfile(p)))))
	}
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s lists %d cases, the test runs %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("profile digest %s, want %s", got[i], want[i])
		}
	}
}

// TestLoopStepsWithinRun: a loop's Steps counts the interpreter's own steps
// while the loop is active, so no loop of any digest case reads more steps
// than the whole run.
func TestLoopStepsWithinRun(t *testing.T) {
	for _, c := range digestCases() {
		mod, args := c.build()
		p, err := Run(mod, args...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, l := range p.AllLoops {
			if li := p.Loops[l]; li.Steps > p.Steps {
				t.Errorf("%s: loop %s reads %d steps of a %d-step run", c.name, l, li.Steps, p.Steps)
			}
		}
	}
}
