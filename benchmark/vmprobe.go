package main

import (
	"time"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/vm"
)

// vmProbeReps is how often probeVM repeats each direct call.
const vmProbeReps = 32

// probeVM times direct calls on the master space a sequential run of p
// leaves resident: what a worker spawn (Clone, RecloneFrom), a worker's
// first store to a page and a checkpoint's dirty walk cost at this
// program's footprint.
func probeVM(into *samples, row int, p *progs.Program, in progs.Input) {
	master := vm.NewAddressSpace()
	if _, err := interp.New(p.Build(in), master).Run(); err != nil {
		return // the same run already failed the workload's own check
	}
	into.add("vm.resident_pages", row, float64(master.PageTable().ResidentPages))

	var pages []uint64
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		master.HeapPages(h, func(base uint64, _ []byte) {
			if len(pages) < vmProbeReps {
				pages = append(pages, base)
			}
		})
	}
	var clone *vm.AddressSpace
	for i := 0; i < vmProbeReps; i++ {
		t0 := time.Now()
		clone = master.Clone()
		into.add("vm.clone", row, float64(time.Since(t0)))
	}
	for i := 0; i < vmProbeReps; i++ {
		t0 := time.Now()
		clone.RecloneFrom(master)
		into.add("vm.reclone", row, float64(time.Since(t0)))
	}
	for _, base := range pages {
		t0 := time.Now()
		err := clone.Write(base, 8, 1)
		d := time.Since(t0)
		if err == nil {
			into.add("vm.cow_first_write", row, float64(d))
		}
	}
	for i := 0; i < vmProbeReps; i++ {
		t0 := time.Now()
		clone.DirtyPages(func(uint64, []byte) {})
		into.add("vm.dirty_walk", row, float64(time.Since(t0)))
	}
}

func reportVM(h *harness) {
	for metric, name := range map[string]string{
		"vm.clone_us":           "vm.clone",
		"vm.reclone_us":         "vm.reclone",
		"vm.cow_first_write_us": "vm.cow_first_write",
		"vm.dirty_walk_us":      "vm.dirty_walk",
	} {
		v, n := h.traced.mean(name)
		h.emit(metric, v/1e3, n)
	}
	_, n := h.traced.medians("vm.resident_pages")
	h.emit("vm.resident_pages", h.traced.sum("vm.resident_pages"), n)
}
