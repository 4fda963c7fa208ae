package privateer

// Component benchmarks of the execution core, for `go test -bench` +
// benchstat while working on a hot path. The paper's tables and figures are
// deterministic goldens asserted by internal/bench's tests, and the
// accepted end-to-end measure of wall-clock speed is benchmark/ (see
// BENCHMARK.json); these isolate one layer each.

import (
	"math"
	"testing"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/progs"
	"privateer/internal/randprog"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// dispatchModule builds a register-only arithmetic loop: after alloca
// promotion the body is pure SSA dispatch with no memory traffic, so time
// per step measures the interpreter's instruction-dispatch cost.
func dispatchModule(n int64) *ir.Module {
	mod := ir.NewModule("micro-dispatch")
	f := mod.NewFunc("main", ir.I64)
	bd := ir.NewBuilder(f)
	acc := bd.Local("acc")
	bd.St(bd.I(0), acc)
	bd.For("i", bd.I(0), bd.I(n), func(iv *ir.Instr) {
		i := bd.Ld(iv)
		s := bd.Ld(acc)
		t1 := bd.Mul(i, bd.I(3))
		t2 := bd.Xor(s, t1)
		t3 := bd.Shl(t2, bd.I(1))
		t4 := bd.Add(t3, bd.LShr(t2, bd.I(17)))
		t5 := bd.Sub(t4, bd.And(i, bd.I(255)))
		bd.St(t5, acc)
	})
	bd.Ret(bd.Ld(acc))
	ir.PromoteAllocas(f)
	f.Recompute()
	return mod
}

// loadStoreModule builds a loop whose body is dominated by one aligned
// 8-byte load and one store per iteration into a 2-page malloc'd buffer.
func loadStoreModule(n int64) *ir.Module {
	mod := ir.NewModule("micro-loadstore")
	f := mod.NewFunc("main", ir.I64)
	bd := ir.NewBuilder(f)
	buf := bd.Local("buf")
	bd.St(bd.Malloc("buf", bd.I(8192)), buf)
	bd.For("i", bd.I(0), bd.I(n), func(iv *ir.Instr) {
		i := bd.Ld(iv)
		off := bd.Mul(bd.And(i, bd.I(1023)), bd.I(8))
		p := bd.Add(bd.LdP(buf), off)
		v := bd.Load(p, 8)
		bd.Store(bd.Add(v, i), p, 8)
	})
	bd.Ret(bd.Load(bd.LdP(buf), 8))
	ir.PromoteAllocas(f)
	f.Recompute()
	return mod
}

// benchSink keeps the compiler from eliding a benchmarked run's result.
var benchSink uint64

// BenchmarkDispatch measures zero-hook dispatch in ns per interpreted
// instruction. Each iteration interprets a fresh module, so no decoded
// program is warm across runs (building the ~20-instruction module is
// microseconds against a run of 6.4M steps). EXPERIMENTS.md keeps the
// `dispatch` rows of the removed micro experiment this continues.
func BenchmarkDispatch(b *testing.B) {
	var steps int64
	for i := 0; i < b.N; i++ {
		it := interp.New(dispatchModule(400000), vm.NewAddressSpace())
		v, err := it.Run()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += v
		steps += it.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/instr")
}

// BenchmarkLoadStore measures the aligned 8-byte load/store path in ns per
// memory access, one module reused across runs: the number ROADMAP item
// 1's `loadstore` bar is stated in (EXPERIMENTS.md keeps the PR 14 row).
func BenchmarkLoadStore(b *testing.B) {
	const iters, memOpsPerIter = 300000, 2
	mod := loadStoreModule(iters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := interp.New(mod, vm.NewAddressSpace()).Run()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*iters*memOpsPerIter), "ns/memop")
}

// heapMixModule builds a loop that, per iteration, loads one word from the
// first page of a private, a redux, a read-only and a short-lived h_alloc'd
// object and stores their sum back into the private one: the access mix of
// a worker step that reaches into several logical heaps.
func heapMixModule(n int64) *ir.Module {
	mod := ir.NewModule("micro-heapmix")
	f := mod.NewFunc("main", ir.I64)
	bd := ir.NewBuilder(f)
	var ptrs []*ir.Instr
	for _, h := range []ir.HeapKind{ir.HeapPrivate, ir.HeapRedux, ir.HeapReadOnly, ir.HeapShortLived} {
		ptrs = append(ptrs, bd.HAlloc(h.String(), bd.I(vm.PageSize), h))
	}
	bd.For("i", bd.I(0), bd.I(n), func(iv *ir.Instr) {
		i := bd.Ld(iv)
		off := bd.Mul(bd.And(i, bd.I(vm.PageSize/8-1)), bd.I(8))
		sum := i
		for _, p := range ptrs {
			sum = bd.Add(sum, bd.Load(bd.Add(p, off), 8))
		}
		bd.Store(sum, bd.Add(ptrs[0], off), 8)
	})
	bd.Ret(bd.Load(ptrs[0], 8))
	ir.PromoteAllocas(f)
	f.Recompute()
	return mod
}

// BenchmarkHeapMix measures the same aligned load/store path as
// BenchmarkLoadStore, in ns per memory access, when consecutive accesses go
// to the first pages of four different heaps: the case the heap colors keep
// in the direct-mapped TLBs (without them every access here would miss).
func BenchmarkHeapMix(b *testing.B) {
	const iters, memOpsPerIter = 300000, 5
	mod := heapMixModule(iters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := interp.New(mod, vm.NewAddressSpace()).Run()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*iters*memOpsPerIter), "ns/memop")
}

// BenchmarkInterpreter measures raw interpretation speed on the quickstart
// kernel (instructions per second appear as steps/op via b.ReportMetric).
func BenchmarkInterpreter(b *testing.B) {
	p := progs.Dijkstra()
	mod := p.Build(p.Train)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		it := interp.New(mod, vm.NewAddressSpace())
		if _, err := it.Run(); err != nil {
			b.Fatal(err)
		}
		steps = it.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkCOWClone measures address-space cloning, the runtime's spawn
// primitive.
func BenchmarkCOWClone(b *testing.B) {
	as := vm.NewAddressSpace()
	base, err := as.Alloc(ir.HeapPrivate, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for off := uint64(0); off < 1<<20; off += vm.PageSize {
		if err := as.Write(base+off, 8, off); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := as.Clone()
		_ = c
	}
}

// BenchmarkPrivacyValidation measures the shadow-memory fast phase through
// a full speculative run of the most privacy-intensive benchmark.
func BenchmarkPrivacyValidation(b *testing.B) {
	p := progs.Dijkstra()
	par, err := core.Parallelize(p.Build(p.Train), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, _, err := core.Run(par, specrt.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rt.Stats.PrivReadChecks+rt.Stats.PrivWriteChecks), "privacy-checks")
	}
}

// BenchmarkWarmRun measures a region-service job's steady state: each paper
// program, compiled at `train`, runs at W = 4 over one shared decoded Program
// and one warmed pool, so the master's and the workers' spaces, interpreters
// and checkpoint buffers all come back from the previous run. B/op is what
// one warm job still allocates.
func BenchmarkWarmRun(b *testing.B) {
	for _, p := range progs.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			par, err := core.Parallelize(p.Build(p.Train), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cfg := specrt.Config{Workers: 4, Program: interp.SharedProgram(par.Mod),
				Pool: specrt.NewWorkerPool(0)}
			if _, _, err := core.Run(par, cfg); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, v, err := core.Run(par, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += v
			}
		})
	}
}

// BenchmarkProfiler measures profiling.Run — the instrumented training run
// that is most of a compile-cache miss — on the five programs at `alt` (what
// compile_cold compiles). Each module is built once, outside the timer, and
// the timer covers only the profiled run: ns/op, B/op and ns/step (ns per
// interpreted instruction) are the profiler's. Each iteration also times an
// unprofiled interp.Run of the same module, with the timer stopped; x_plain
// is the profiled run's time over the plain run's, and because the two
// alternate in one process, host drift cancels in it. The geomean of x_plain
// over the five programs is logged (shown under -v).
func BenchmarkProfiler(b *testing.B) {
	xPlain := map[string]float64{}
	for _, p := range progs.All() {
		mod := p.Build(p.Alt)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			var profiled, plain time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				prof, err := profiling.Run(mod)
				if err != nil {
					b.Fatal(err)
				}
				profiled += time.Since(t0)
				steps += prof.Steps
				b.StopTimer()
				t0 = time.Now()
				it := interp.New(mod, vm.NewAddressSpace())
				v, err := it.Run()
				if err != nil {
					b.Fatal(err)
				}
				plain += time.Since(t0)
				benchSink += v
				b.StartTimer()
			}
			xPlain[p.Name] = profiled.Seconds() / plain.Seconds()
			b.ReportMetric(float64(profiled.Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(xPlain[p.Name], "x_plain")
		})
	}
	logSum := 0.0
	for _, x := range xPlain {
		logSum += math.Log(x)
	}
	b.Logf("x_plain geomean over %d programs: %.2f", len(xPlain), math.Exp(logSum/float64(len(xPlain))))
}

// BenchmarkParallelize measures core.Parallelize — profile, points-to,
// classify, prove, transform — on the rows benchmark/'s compile_cold
// compiles: each paper program at `alt`, and the 16-program random pool
// (seeds 1–16) as one op. Module construction is outside the timer; B/op is
// what the compiler allocates.
func BenchmarkParallelize(b *testing.B) {
	type row struct {
		name  string
		build func() []*ir.Module
		opts  []core.Options
	}
	var rows []row
	for _, p := range progs.All() {
		rows = append(rows, row{p.Name, func() []*ir.Module { return []*ir.Module{p.Build(p.Alt)} },
			[]core.Options{{}}})
	}
	random := row{name: "random16"}
	for seed := int64(1); seed <= 16; seed++ {
		random.opts = append(random.opts, core.Options{TrainArgs: []uint64{randprog.TrainTrips(randprog.DefaultConfig(seed))}})
	}
	random.build = func() []*ir.Module {
		var mods []*ir.Module
		for seed := int64(1); seed <= 16; seed++ {
			mods = append(mods, randprog.Generate(randprog.DefaultConfig(seed)))
		}
		return mods
	}
	for _, r := range append(rows, random) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mods := r.build()
				b.StartTimer()
				for j, mod := range mods {
					if _, err := core.Parallelize(mod, r.opts[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
