package vm

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/obs"
)

// TestPageLayerTraceEvents: the vm layer must report COW duplications, TLB
// flushes (with their cause) and protection faults through the tracer, and
// clones must inherit it.
func TestPageLayerTraceEvents(t *testing.T) {
	col := obs.NewCollector(0)
	as := NewAddressSpace()
	as.Trace = obs.NewTracer(col)

	base := ir.HeapSystem.Base() + PageSize
	if err := as.Write(base, 8, 42); err != nil {
		t.Fatal(err)
	}

	c := as.Clone() // emits tlb-flush("clone"); child inherits the tracer
	c.TraceWorker = 3
	if err := c.Write(base, 8, 7); err != nil { // COW duplication in the child
		t.Fatal(err)
	}

	as.SetProt(ir.HeapReadOnly, ProtRead) // tlb-flush("setprot")
	roAddr := ir.HeapReadOnly.Base() + PageSize
	if err := as.Write(roAddr, 8, 1); err == nil { // protection fault
		t.Fatal("write to read-only heap succeeded")
	}

	events := col.Events()
	counts := map[obs.Kind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts[obs.KCOWCopy] == 0 {
		t.Error("no cow-copy event for the child's COW write")
	}
	if counts[obs.KTLBFlush] < 2 {
		t.Errorf("tlb-flush events %d, want >= 2 (clone + setprot)", counts[obs.KTLBFlush])
	}
	if counts[obs.KProtFault] != 1 {
		t.Errorf("prot-fault events %d, want 1", counts[obs.KProtFault])
	}
	var sawClone, sawSetProt bool
	for _, ev := range events {
		switch ev.Kind {
		case obs.KTLBFlush:
			sawClone = sawClone || ev.Cause == "clone"
			sawSetProt = sawSetProt || ev.Cause == "setprot"
		case obs.KCOWCopy:
			if ev.Worker != 3 {
				t.Errorf("cow-copy attributed to worker %d, want 3", ev.Worker)
			}
			if ev.A != int64(base&^uint64(PageSize-1)) {
				t.Errorf("cow-copy page base %#x, want %#x", ev.A, base&^uint64(PageSize-1))
			}
		case obs.KProtFault:
			if ev.A != int64(roAddr) {
				t.Errorf("prot-fault addr %#x, want %#x", ev.A, roAddr)
			}
		}
	}
	if !sawClone || !sawSetProt {
		t.Errorf("tlb-flush causes missing: clone=%v setprot=%v", sawClone, sawSetProt)
	}

	// An untraced space must stay silent and cost only nil checks.
	before := col.Total()
	quiet := NewAddressSpace()
	if err := quiet.Write(base, 8, 1); err != nil {
		t.Fatal(err)
	}
	quiet.SetProt(ir.HeapReadOnly, ProtRead)
	if col.Total() != before {
		t.Error("untraced address space emitted events")
	}
}
