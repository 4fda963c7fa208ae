package bench

import (
	"fmt"
	"strings"
	"time"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// Microbenchmarks isolate the execution core's hot paths so refactors can be
// compared before/after on the same host: the interpreter dispatch loop with
// zero hooks, the load/store path, COW address-space cloning, and the worker
// spawn sequence (clone + interpreter setup + layout adoption). Unlike the
// paper figures these are wall-clock measurements — they characterize the
// reproduction's engine, not the modeled machine.

// MicroResult is one microbenchmark measurement.
type MicroResult struct {
	// Name identifies the benchmark.
	Name string `json:"name"`
	// Unit names what one op is (instruction, memop, clone, spawn).
	Unit string `json:"unit"`
	// Ops is the number of operations timed.
	Ops int64 `json:"ops"`
	// WallNS is the total wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// NSPerOp is WallNS / Ops.
	NSPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is the derived throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// MicroReport bundles all microbenchmark results.
type MicroReport struct {
	// Results lists one entry per benchmark.
	Results []MicroResult `json:"results"`
}

// Format renders the report as an aligned table.
func (r *MicroReport) Format() string {
	rows := make([][]string, 0, len(r.Results))
	for _, m := range r.Results {
		rows = append(rows, []string{
			m.Name, m.Unit,
			fmt.Sprintf("%d", m.Ops),
			fmt.Sprintf("%.1f", m.NSPerOp),
			fmt.Sprintf("%.2f M", m.OpsPerSec/1e6),
		})
	}
	var sb strings.Builder
	sb.WriteString("Microbenchmarks (execution core, wall clock)\n\n")
	sb.WriteString(table([]string{"benchmark", "unit", "ops", "ns/op", "ops/s"}, rows))
	return sb.String()
}

// result guards against the compiler or a future refactor eliding benchmark
// work.
var microSink uint64

// dispatchModule builds a register-only arithmetic loop: after alloca
// promotion the body is pure SSA dispatch with no memory traffic, so steps
// per second measure the interpreter's instruction-dispatch throughput.
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

// loadStoreModule builds a loop whose body is dominated by aligned 8-byte
// loads and stores into a 2-page malloc'd buffer.
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

// memOpsOf counts the executed load+store instructions of loadStoreModule's
// body so the load/store benchmark reports ns per memory access.
const loadStoreMemOpsPerIter = 2

// runModule interprets mod once with zero hooks and returns the interpreter.
func runModule(mod *ir.Module) (*interp.Interp, error) {
	it := interp.New(mod, vm.NewAddressSpace())
	v, err := it.Run()
	microSink += v
	return it, err
}

// microDispatch measures zero-hook dispatch throughput in interpreted
// instructions per second.
func microDispatch() (MicroResult, error) {
	const n = 400000
	mod := dispatchModule(n)
	var ops int64
	var wall time.Duration
	for wall < 300*time.Millisecond {
		m := mod
		if ops > 0 {
			m = dispatchModule(n) // fresh module: no cross-run warm state
		}
		t0 := time.Now()
		it, err := runModule(m)
		if err != nil {
			return MicroResult{}, fmt.Errorf("micro dispatch: %w", err)
		}
		wall += time.Since(t0)
		ops += it.Steps
	}
	return mkResult("dispatch", "instr", ops, wall), nil
}

// microDispatchShared measures dispatch throughput when one module is reused
// across runs (the worker situation: per-function setup amortized away).
func microDispatchShared() (MicroResult, error) {
	const n = 400000
	mod := dispatchModule(n)
	var ops int64
	var wall time.Duration
	for wall < 300*time.Millisecond {
		t0 := time.Now()
		it, err := runModule(mod)
		if err != nil {
			return MicroResult{}, fmt.Errorf("micro dispatch-warm: %w", err)
		}
		wall += time.Since(t0)
		ops += it.Steps
	}
	return mkResult("dispatch-warm", "instr", ops, wall), nil
}

// microLoadStore measures the aligned 8-byte load/store path in memory
// accesses per second.
func microLoadStore() (MicroResult, error) {
	const n = 300000
	mod := loadStoreModule(n)
	var ops int64
	var wall time.Duration
	for wall < 300*time.Millisecond {
		t0 := time.Now()
		_, err := runModule(mod)
		if err != nil {
			return MicroResult{}, fmt.Errorf("micro loadstore: %w", err)
		}
		wall += time.Since(t0)
		ops += n * loadStoreMemOpsPerIter
	}
	return mkResult("loadstore", "memop", ops, wall), nil
}

// microCOWClone measures cloning an address space with 512 instantiated
// pages, plus the COW resolution of a single page write in the child.
func microCOWClone() (MicroResult, error) {
	const pages = 512
	as := vm.NewAddressSpace()
	base := ir.HeapSystem.Base() + vm.PageSize
	for p := uint64(0); p < pages; p++ {
		if err := as.Write(base+p*vm.PageSize, 8, p); err != nil {
			return MicroResult{}, fmt.Errorf("micro cow-clone setup: %w", err)
		}
	}
	var ops int64
	var wall time.Duration
	for wall < 200*time.Millisecond {
		t0 := time.Now()
		c := as.Clone()
		if err := c.Write(base, 8, uint64(ops)); err != nil {
			return MicroResult{}, fmt.Errorf("micro cow-clone: %w", err)
		}
		wall += time.Since(t0)
		v, _ := c.Read(base, 8)
		microSink += v
		ops++
	}
	return mkResult("cow-clone", "clone", ops, wall), nil
}

// microWorkerSpawn measures the worker spawn sequence the speculative
// runtime performs per worker: COW clone of the master space, interpreter
// construction, and global-layout adoption.
func microWorkerSpawn() (MicroResult, error) {
	mod := loadStoreModule(64)
	master := interp.New(mod, vm.NewAddressSpace())
	if _, err := master.Run(); err != nil {
		return MicroResult{}, fmt.Errorf("micro worker-spawn setup: %w", err)
	}
	// Touch a realistic number of pages so the clone is not trivially empty.
	base := ir.HeapSystem.Base() + vm.PageSize
	for p := uint64(0); p < 256; p++ {
		if err := master.AS.Write(base+p*vm.PageSize, 8, p); err != nil {
			return MicroResult{}, fmt.Errorf("micro worker-spawn touch: %w", err)
		}
	}
	layout := master.GlobalLayout()
	var ops int64
	var wall time.Duration
	for wall < 200*time.Millisecond {
		t0 := time.Now()
		as := master.AS.Clone()
		it := interp.New(mod, as)
		it.AdoptLayout(layout)
		wall += time.Since(t0)
		microSink += uint64(it.Steps)
		ops++
	}
	return mkResult("worker-spawn", "spawn", ops, wall), nil
}

func mkResult(name, unit string, ops int64, wall time.Duration) MicroResult {
	ns := wall.Nanoseconds()
	r := MicroResult{Name: name, Unit: unit, Ops: ops, WallNS: ns}
	if ops > 0 && ns > 0 {
		r.NSPerOp = float64(ns) / float64(ops)
		r.OpsPerSec = float64(ops) / (float64(ns) / 1e9)
	}
	return r
}

// RunMicro executes every microbenchmark and returns the report.
func RunMicro() (*MicroReport, error) { return RunMicroTraced(nil) }

// RunMicroTraced is RunMicro with a span mark per benchmark on tr. The
// benchmarks' own address spaces stay untraced — the marks bracket each
// measurement without perturbing the measured paths.
func RunMicroTraced(tr *obs.Tracer) (*MicroReport, error) {
	benches := []func() (MicroResult, error){
		microDispatch,
		microDispatchShared,
		microLoadStore,
		microCOWClone,
		microWorkerSpawn,
	}
	rep := &MicroReport{}
	for _, b := range benches {
		t0 := tr.Now()
		r, err := b()
		if err != nil {
			return nil, err
		}
		if tr.On() {
			tr.Emit(obs.Event{Kind: obs.KMark, TimeNS: t0, DurNS: tr.Now() - t0,
				Invocation: -1, Worker: -1, Iter: -1, Cause: r.Name})
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}
