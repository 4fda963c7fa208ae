package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/randprog"
	"privateer/internal/specrt"
)

// compileInput is one module the purity tests compile: a paper program at
// train or a random program, by the speculative build or, when static is
// set, the DOALL-only one.
type compileInput struct {
	name   string
	build  func() *ir.Module
	opts   Options
	static bool
}

// compileInputs returns the five paper programs at train, unpriced, priced
// for a fleet of 4 and DOALL-only, and randprog seeds 1–16.
func compileInputs() []compileInput {
	var ins []compileInput
	for _, p := range progs.All() {
		build := func() *ir.Module { return p.Build(p.Train) }
		ins = append(ins, compileInput{name: p.Name, build: build},
			compileInput{name: p.Name + "/W=4", build: build, opts: Options{Workers: 4}},
			compileInput{name: p.Name + "/static", build: build, static: true})
	}
	for seed := int64(1); seed <= 16; seed++ {
		cfg := randprog.DefaultConfig(seed)
		ins = append(ins, compileInput{
			name:  fmt.Sprintf("randprog/%d", seed),
			build: func() *ir.Module { return randprog.Generate(cfg) },
			opts:  Options{TrainArgs: []uint64{randprog.TrainTrips(cfg)}},
		})
	}
	return ins
}

// compiled prints what one compile of in produced: the loop report and the
// transformed module.
func compiled(in compileInput) (string, error) {
	parallelize := Parallelize
	if in.static {
		parallelize = ParallelizeStatic
	}
	par, err := parallelize(in.build(), in.opts)
	if err != nil {
		return "", fmt.Errorf("%s: %w", in.name, err)
	}
	return par.Summary() + ir.FormatModule(par.Mod), nil
}

// TestConcurrentCompilesAreIdentical: compiling is a pure function of the
// module. Eight goroutines each compile every input, starting at different
// ones, and every printed module equals a serial compile of the same input,
// region names included. Under the race detector this also holds the
// compiler to sharing no mutable state between compiles.
func TestConcurrentCompilesAreIdentical(t *testing.T) {
	ins := compileInputs()
	want := make([]string, len(ins))
	for i, in := range ins {
		out, err := compiled(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(ins))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ins {
				i := (g*len(ins)/goroutines + k) % len(ins)
				out, err := compiled(ins[i])
				if err != nil {
					errs <- err
				} else if out != want[i] {
					errs <- fmt.Errorf("%s: a concurrent compile printed\n%s\nthe serial one\n%s",
						ins[i].name, out, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// stateAllowed lists the package-level variables the compiler may hold,
// each with why it is not state one compile can leave to the next.
var stateAllowed = map[string]string{
	"ir.opNames":          "read-only table: opcode mnemonics",
	"ir.heapTags":         "read-only table: the heap tag bits",
	"ir.Builtins":         "read-only table: builtin names and the operands each reads",
	"ir.indexedRedux":     "test-only hook: nil outside the UseIndex tests",
	"analysis.Unknown":    "read-only value: the unnamed abstract object",
	"analysis.unknownSet": "read-only set: the points-to set of unresolved values",
	"analysis.Rules":      "read-only table: proof rules in report order",
	"profiling.unwritten": "read-only page: nothing writes to it",
	"interp.fusions":      "read-only table: the decoder's fused sequences",
}

// TestCompilerHoldsNoPackageState lists every package-level var in the
// non-test files of the packages that compile and decode a module and
// fails on any the allowlist does not name: a counter or cache there makes
// a compile depend on what the process compiled before.
func TestCompilerHoldsNoPackageState(t *testing.T) {
	found := map[string]bool{}
	for _, pkg := range []string{"ir", "analysis", "classify", "deps", "transform", "profiling", "core", "interp"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.VAR {
					continue
				}
				for _, spec := range gen.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						found[pkg+"."+name.Name] = true
						if _, ok := stateAllowed[pkg+"."+name.Name]; !ok {
							t.Errorf("%s: package-level var %s; compile state belongs to the module or the call", file, name.Name)
						}
					}
				}
			}
		}
	}
	for name := range stateAllowed {
		if !found[name] {
			t.Errorf("allowlisted %s no longer exists; drop it from stateAllowed", name)
		}
	}
}

// ivAfterLoop builds main(n): for i in [n, 400): out[i] = 2i; return
// i + out[399]. The induction variable is read after the loop, and a run
// with n ≥ 400 enters the loop zero times.
func ivAfterLoop() *ir.Module {
	m := ir.NewModule("ivexit")
	out := m.NewGlobal("out", 8*400)
	f := m.NewFunc("main", ir.I64)
	n := f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	var counter *ir.Instr
	b.For("i", n, b.I(400), func(iv *ir.Instr) {
		counter = iv
		i := b.Ld(iv)
		b.Store(b.Mul(i, b.I(2)), b.Add(b.Global(out), b.Mul(i, b.I(8))), 8)
	})
	b.Ret(b.Add(b.Ld(counter), b.Load(b.Add(b.Global(out), b.I(8*399)), 8)))
	ir.PromoteAllocas(f)
	return m
}

// TestZeroTripLoopKeepsIVExit: an outlined loop that runs no iteration
// leaves its induction variable at the initial value, not the limit, under
// the speculative runtime and the DOALL-only baseline alike. Both returned
// 400 for n = 1000, with no misspeculation.
func TestZeroTripLoopKeepsIVExit(t *testing.T) {
	opts := Options{TrainArgs: []uint64{0}}
	par, err := Parallelize(ivAfterLoop(), opts)
	if err != nil {
		t.Fatal(err)
	}
	static, err := ParallelizeStatic(ivAfterLoop(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 1 || len(static.Regions) != 1 {
		t.Fatalf("want the loop selected by both pipelines:\n%s%+v", par.Summary(), static.Reports)
	}
	for _, n := range []uint64{0, 399, 400, 1000} {
		want, _, err := RunSequential(ivAfterLoop(), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, got, err := Run(par, specrt.Config{Workers: workers}, n); err != nil || got != want {
				t.Errorf("n=%d workers=%d: speculative run returned %d, %v; want %d", n, workers, got, err, want)
			}
			if _, got, err := Run(static, specrt.Config{Workers: workers}, n); err != nil || got != want {
				t.Errorf("n=%d workers=%d: DOALL-only run returned %d, %v; want %d", n, workers, got, err, want)
			}
		}
	}
}
