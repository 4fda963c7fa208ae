package transform

import (
	"testing"

	"privateer/internal/deps"
	"privateer/internal/ir"
)

func TestLoadFreeAddress(t *testing.T) {
	m := ir.NewModule("lf")
	g := m.NewGlobal("g", 64)
	f := m.NewFunc("main", ir.I64)
	p := f.NewParam("p", ir.Ptr)
	b := ir.NewBuilder(f)

	direct := b.Global(g)
	arith := b.Add(b.Global(g), b.Mul(b.I(3), b.I(8)))
	viaLoad := b.LoadPtr(b.Global(g))
	viaLoadArith := b.Add(viaLoad, b.I(8))
	viaParam := b.Add(p, b.I(8))
	alloc := b.Malloc("m", b.I(16))
	b.Ret(b.I(0))

	cases := []struct {
		name string
		v    ir.Value
		want bool
	}{
		{"global", direct, true},
		{"global+arith", arith, true},
		{"loaded pointer", viaLoad, false},
		{"loaded pointer+arith", viaLoadArith, false},
		{"parameter", viaParam, false},
		{"allocation", alloc, true},
	}
	for _, c := range cases {
		if got := loadFreeAddress(c.v); got != c.want {
			t.Errorf("%s: loadFreeAddress = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSitesSummaryGolden pins SitesPerHeap rendering: the counts live in a
// map, so the renderer must impose heap-kind order or the output would
// jitter between runs.
func TestSitesSummaryGolden(t *testing.T) {
	st := &Stats{SitesPerHeap: map[ir.HeapKind]int{
		ir.HeapReadOnly:   7,
		ir.HeapPrivate:    12,
		ir.HeapShortLived: 3,
		ir.HeapRedux:      0, // zero entries are omitted
	}}
	want := "private=12 short-lived=3 read-only=7"
	for i := 0; i < 16; i++ { // map order must never leak through
		if got := st.SitesSummary(); got != want {
			t.Fatalf("SitesSummary() iteration %d\n got %q\nwant %q", i, got, want)
		}
	}
	if got := (&Stats{}).SitesSummary(); got != "-" {
		t.Errorf("empty SitesSummary() = %q, want -", got)
	}
}

func plan(v, c, io bool) *deps.Plan {
	return &deps.Plan{NeedsValuePrediction: v, NeedsControlSpec: c, NeedsIODeferral: io}
}

func TestExtrasRendering(t *testing.T) {
	st := &Stats{}
	if got := st.Extras(plan(false, false, false)); got != "-" {
		t.Errorf("no extras: %q", got)
	}
	if got := st.Extras(plan(true, true, true)); got != "Value, Control, I/O" {
		t.Errorf("all extras: %q", got)
	}
	if got := st.Extras(plan(false, true, false)); got != "Control" {
		t.Errorf("control only: %q", got)
	}
}
