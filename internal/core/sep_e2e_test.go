package core

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/specrt"
)

// buildPrivTable builds a program whose hot loop fully overwrites a table
// every iteration (statically privatizable via covered-write), reads an
// initialized input array (statically read-only) and accumulates into a
// sum (reduction). It is the canonical shape the separation prover is
// meant to discharge end-to-end.
func buildPrivTable(n int64) *ir.Module {
	m := ir.NewModule("sepx")
	table := m.NewGlobal("table", n*8)
	input := m.NewGlobal("input", n*8)
	for i := int64(0); i < n; i++ {
		input.Init = append(input.Init, byte(i*5+1), 0, 0, 0, 0, 0, 0, 0)
	}
	sum := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("src", b.I(0), b.I(n), func(sv *ir.Instr) {
		b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
			src := b.Add(b.Global(input), b.Mul(b.Ld(iv), b.I(8)))
			dst := b.Add(b.Global(table), b.Mul(b.Ld(iv), b.I(8)))
			b.Store(b.Add(b.Load(src, 8), b.Ld(sv)), dst, 8)
		})
		cell := b.Load(b.Add(b.Global(table), b.Mul(b.Ld(sv), b.I(8))), 8)
		sumAddr := b.Global(sum)
		b.Store(b.Add(b.Load(sumAddr, 8), cell), sumAddr, 8)
	})
	b.Ret(b.Load(b.Global(sum), 8))
	ir.PromoteAllocas(f)
	return m
}

func TestStaticSepProvenEndToEnd(t *testing.T) {
	const n = 40
	seqVal, _, err := RunSequential(buildPrivTable(n))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallelize(buildPrivTable(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 1 {
		t.Fatalf("selected %d regions, want 1\n%s", len(par.Regions), par.Summary())
	}
	ri := par.Regions[0]
	sep := ri.Assign.Sep
	if sep == nil {
		t.Fatal("no separation proofs attached to the region")
	}
	table := profiling.Object{Global: par.Mod.Globals["table"]}
	input := profiling.Object{Global: par.Mod.Globals["input"]}
	if !sep.StaticallyPrivatized(table) {
		t.Errorf("table should be statically privatized:\n%s", sep.Summary())
	}
	if !sep.ProvenFor(input, ir.HeapReadOnly) {
		t.Errorf("input should be proven read-only:\n%s", sep.Summary())
	}
	if ri.TStats.StaticProven == 0 {
		t.Error("no separation checks were statically discharged")
	}
	if ri.TStats.StaticPrivMarksDropped == 0 {
		t.Error("no privacy marks were dropped for the proven table")
	}

	rt, got, err := Run(par, specrt.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != seqVal {
		t.Errorf("result %d, want %d", got, seqVal)
	}
	if rt.Stats.Misspecs != 0 {
		t.Errorf("unexpected misspeculations: %d", rt.Stats.Misspecs)
	}
	if rt.Stats.ProvenRangeBytes == 0 {
		t.Error("no proven ranges were wholesale-installed at runtime")
	}

	// The elision-only baseline must agree bit-for-bit and must not claim
	// any static proofs.
	base, err := ParallelizeAblated(buildPrivTable(n), Options{}, Ablation{DisableStaticSep: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Regions) != 1 {
		t.Fatalf("baseline selected %d regions, want 1", len(base.Regions))
	}
	if base.Regions[0].TStats.StaticProven != 0 {
		t.Error("DisableStaticSep build still discharged checks statically")
	}
	brt, bgot, err := Run(base, specrt.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bgot != got || brt.Output() != rt.Output() {
		t.Errorf("baseline and proven builds diverge: %d vs %d", bgot, got)
	}
	if brt.Stats.ProvenRangeBytes != 0 {
		t.Error("baseline build installed proven ranges")
	}
}

func TestStaticSepAuditCleanRun(t *testing.T) {
	const n = 40
	seqVal, _, err := RunSequential(buildPrivTable(n))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallelize(buildPrivTable(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, got, err := Run(par, specrt.Config{Workers: 4, SepAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != seqVal {
		t.Errorf("result %d, want %d", got, seqVal)
	}
	if rt.Stats.SepAuditViolations != 0 {
		t.Errorf("audit flagged %d violations on sound proofs:\n%v",
			rt.Stats.SepAuditViolations, rt.SepAudit)
	}
}

// buildLateWriter reads cfg every iteration and stores through a
// data-dependent pointer that targets a scratch cell for iterations
// below 20 and cfg itself from iteration 20 on. The Select keeps the
// store unconditional (no control speculation can elide it); trained
// with n=16 the profile only ever sees the scratch target, so cfg
// classifies read-only. The static prover correctly refuses the proof —
// the store's points-to set includes cfg — so planting it models a
// prover bug the runtime audit oracle must catch before the late store
// silently corrupts the run.
func buildLateWriter(n int64) *ir.Module {
	m := ir.NewModule("latewr")
	cfg := m.NewGlobal("cfg", 8)
	cfg.Init = []byte{9, 0, 0, 0, 0, 0, 0, 0}
	scratch := m.NewGlobal("scratch", 8)
	out := m.NewGlobal("out", 8)
	f := m.NewFunc("main", ir.I64)
	f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	nv := f.Params[0]
	b.For("i", b.I(0), nv, func(iv *ir.Instr) {
		v := b.Load(b.Global(cfg), 8)
		outAddr := b.Global(out)
		b.Store(b.Add(b.Load(outAddr, 8), v), outAddr, 8)
		tgt := b.Select(b.SLt(b.Ld(iv), b.I(20)), b.Global(scratch), b.Global(cfg))
		b.Store(b.Ld(iv), tgt, 8)
	})
	b.Ret(b.Load(b.Global(out), 8))
	_ = n
	ir.PromoteAllocas(f)
	return m
}

func TestStaticSepAuditCatchesPlantedProof(t *testing.T) {
	par, err := ParallelizeAblated(buildLateWriter(32), Options{TrainArgs: []uint64{16}},
		Ablation{PlantProofs: map[string]string{"@cfg": "readonly"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) == 0 {
		t.Skipf("loop not selected:\n%s", par.Summary())
	}
	sep := par.Regions[0].Assign.Sep
	cfg := profiling.Object{Global: par.Mod.Globals["cfg"]}
	if !sep.ProvenFor(cfg, ir.HeapReadOnly) {
		t.Fatal("plant did not take; the test premise is broken")
	}
	rt, _, err := Run(par, specrt.Config{Workers: 4, SepAudit: true}, 32)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rt.Stats.SepAuditViolations == 0 {
		t.Error("the audit oracle missed the planted unsound read-only proof")
	}
	if len(rt.SepAudit) == 0 {
		t.Error("no violation details were reported")
	}
}
