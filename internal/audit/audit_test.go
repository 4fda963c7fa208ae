package audit

import (
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// buildSelectTarget builds the planted-proof target: a store through a
// Select pointer that only reaches cfg (profile-classified read-only) past
// the training horizon. See the core package's planted-proof test for why
// this shape defeats both control speculation and the static prover.
func buildSelectTarget() *ir.Module {
	m := ir.NewModule("auditv")
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
	ir.PromoteAllocas(f)
	return m
}

func TestAuditCleanPrograms(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			in := p.Train
			rep, err := Run(func() *ir.Module { return p.Build(in) },
				core.Options{}, nil, specrt.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("sound proofs flagged:\n%s", rep.Format())
			}
		})
	}
}

func TestAuditCatchesPlantedProof(t *testing.T) {
	rep, err := Run(buildSelectTarget, core.Options{TrainArgs: []uint64{16}},
		map[string]string{"@cfg": "readonly"}, specrt.Config{Workers: 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("planted unsound proof not caught:\n%s", rep.Format())
	}
	layers := map[string]bool{}
	for _, v := range rep.Violations {
		layers[v.Layer] = true
	}
	if !layers["rederive"] {
		t.Error("re-derivation layer missed the planted claim")
	}
	if !layers["runtime"] {
		t.Error("runtime SepAudit layer missed the planted claim")
	}
	if !strings.Contains(rep.Format(), "VIOLATION") {
		t.Error("report does not shout about the violation")
	}
}

func TestAuditProfileLayerCatchesLiveContradiction(t *testing.T) {
	// Audited on the full input (args=32), the fresh profile itself
	// observes the write into cfg, so the profile layer fires too — the
	// planted read-only claim names an object the audit profile saw a
	// region write target.
	rep, err := Run(buildSelectTarget, core.Options{TrainArgs: []uint64{16}},
		map[string]string{"@cfg": "readonly"}, specrt.Config{Workers: 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Layer == "profile" && v.Claim.Object == "@cfg" {
			found = true
		}
	}
	if !found {
		t.Errorf("profile layer did not contradict the planted claim:\n%s", rep.Format())
	}
}
