package specrt

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// ioRec is one deferred output operation, ordered by iteration.
type ioRec struct {
	iter int64
	text string
}

// reduxObj is one live reduction object as a span sees it: its range, and
// the operator and element size the invoked region reduces it with.
type reduxObj struct {
	addr     uint64
	size     int64
	elemSize int64
	op       ir.ReduxKind
}

// provenRange is one statically-proven object's address range as a span
// sees it: a privatized range to install wholesale, or a read-only range
// the SepAudit oracle watches.
type provenRange struct {
	addr uint64
	size int64
}

// checkpoint is one checkpoint object (section 5.2): the merged speculative
// state for one iteration interval. Each checkpoint is self-contained — it
// records only the bytes touched during its own interval — so workers can
// contribute to different checkpoints concurrently without ordering
// constraints ("a fast worker proceeds to subsequent work units without
// waiting"). Conflicts *within* an interval are detected during the merge;
// conflicts *across* intervals are caught by a chain-validation pass when
// the span quiesces, before anything commits.
type checkpoint struct {
	// mu serializes merges: one worker's addWorkerState at a time per
	// checkpoint.
	mu sync.Mutex
	// id is the interval index within the span.
	id int64
	// base and limit bound the interval's iterations [base, limit).
	base, limit int64
	// prev and next link the chain: the previous and the following
	// checkpoint of the span (nil at either end).
	prev, next *checkpoint

	// data holds merged private-heap byte values for bytes written this
	// interval; shadow holds the interval's combined metadata (zero =
	// untouched this interval).
	data   map[uint64][]byte
	shadow map[uint64][]byte
	// redux[i][w] is worker w's contribution to the span's i-th reduction
	// object (nil = none; checkpointFor sizes the outer slice). Snapshots
	// are cumulative per worker, so an object's contributions reflect all
	// iterations up to this interval. They are folded together in worker-id
	// order at install time: combination order must not depend on goroutine
	// scheduling, or floating-point reductions would produce
	// schedule-dependent low bits.
	redux [][][]byte
	// proven holds the content of each statically-privatized object at
	// the end of this interval, keyed by base address. Exactly one worker
	// contributes it — the one whose cyclic assignment ran the interval's
	// last iteration — because the full-overwrite proof makes that
	// iteration's content the sequential state after the interval.
	proven map[uint64][]byte
	// io collects deferred output of the interval.
	io []ioRec
	// committed marks the checkpoint non-speculative.
	committed bool
	// carried is crossValidate's scratch: collapsed metadata per shadow
	// page, empty between calls.
	carried map[uint64][]byte
	// bufs is where the pages and snapshots above come from and, once the
	// span is over, go back to, with the checkpoint itself.
	bufs *bufFree
}

// recycle gives every buffer cp owns back to cp.bufs and parks cp there,
// its maps cleared in place. Nothing may read cp afterwards.
func (cp *checkpoint) recycle() {
	f := cp.bufs
	for _, m := range [...]map[uint64][]byte{cp.data, cp.shadow, cp.proven} {
		for _, b := range m {
			f.put(b)
		}
		clear(m)
	}
	for _, slots := range cp.redux {
		for w, b := range slots {
			if b != nil {
				f.put(b)
			}
			slots[w] = nil
		}
	}
	clear(cp.io)
	cp.io = cp.io[:0]
	cp.prev, cp.next, cp.committed = nil, nil, false
	f.mu.Lock()
	if len(f.cps) < cpFreeCap {
		f.cps = append(f.cps, cp)
	}
	f.mu.Unlock()
}

// ownPage returns the checkpoint-owned page at base in m, creating it on
// first use.
func (cp *checkpoint) ownPage(m map[uint64][]byte, base uint64) []byte {
	pg, ok := m[base]
	if !ok {
		pg = cp.bufs.get(vm.PageSize, true)
		m[base] = pg
	}
	return pg
}

// mergeShadowPage merges one worker shadow page (base shBase, content sh)
// into the checkpoint's combined view and returns the private-heap address
// of the first privacy violation the merge detects (0 = clean; page 0 is
// never mapped, so 0 is unambiguous).
func (cp *checkpoint) mergeShadowPage(ws *vm.AddressSpace, shBase uint64, sh []byte) uint64 {
	var missAddr uint64
	privBase := shBase &^ ir.ShadowBit
	var combinedSh, combinedData, privData []byte
	for w := 0; w < vm.PageSize; w += 8 {
		// A word of untouched/old-write bytes contributes nothing to the
		// merge; span-promoted checks leave long dense runs of such words,
		// so the scan walks summaries eight bytes at a time.
		if !wordTouched(binary.LittleEndian.Uint64(sh[w:])) {
			continue
		}
		for off := w; off < w+8; off++ {
			wm := sh[off]
			if wm == MetaLiveIn || wm == MetaOldWrite {
				continue // untouched this interval / merged earlier
			}
			if combinedSh == nil {
				combinedSh = cp.ownPage(cp.shadow, shBase)
				combinedData = cp.ownPage(cp.data, privBase)
			}
			newMeta, takeData, m := MergeByte(combinedSh[off], wm)
			if m && missAddr == 0 {
				missAddr = privBase + uint64(off)
			}
			combinedSh[off] = newMeta
			if takeData {
				if privData == nil {
					if pd, have := ws.PageData(privBase); have {
						privData = pd
					} else {
						privData = make([]byte, vm.PageSize)
					}
				}
				combinedData[off] = privData[off]
			}
		}
	}
	return missAddr
}

// addWorkerState merges one worker's speculative state into the checkpoint:
// the second phase of privacy validation plus data selection by timestamp.
// The worker's shadow must reflect the current interval only (timestamps
// are relative to cp.base). proven is non-nil only for the worker that
// executed the interval's last iteration: its view of each statically-
// privatized range is snapshotted as the interval's final content. It
// returns ok=false if the merge detects a privacy violation, the number of
// shadow bytes scanned, and the first faulting address the merge observed
// (0 when ok, or when the violation has no address), which feeds
// misspeculation attribution.
func (cp *checkpoint) addWorkerState(wid int, ws *vm.AddressSpace, reduxObjs []reduxObj, proven []provenRange, io []ioRec) (ok bool, scanned int64, missAddr uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ok = true
	miss := func(addr uint64) {
		ok = false
		if missAddr == 0 {
			missAddr = addr
		}
	}
	// Summary-guided scan: every shadow page in a worker space was created
	// by the worker itself (the master never writes shadow state, and clones
	// inherit none), so the dirty walk visits exactly the pages a full heap
	// scan would — while skipping the untouched subtrees of the master's
	// footprint outright.
	ws.DirtyHeapPages(ir.HeapShadow, func(shBase uint64, sh []byte) {
		scanned += vm.PageSize
		if a := cp.mergeShadowPage(ws, shBase, sh); a != 0 {
			miss(a)
		}
	})
	for i, ro := range reduxObjs {
		buf := cp.bufs.get(int(ro.size), false)
		if err := ws.ReadBytes(ro.addr, buf); err != nil {
			cp.bufs.put(buf)
			miss(ro.addr)
			continue
		}
		slots := cp.redux[i]
		for len(slots) <= wid {
			slots = append(slots, nil)
		}
		slots[wid] = buf
		cp.redux[i] = slots
	}
	for _, pr := range proven {
		buf := cp.bufs.get(int(pr.size), false)
		if err := ws.ReadBytes(pr.addr, buf); err != nil {
			cp.bufs.put(buf)
			miss(pr.addr)
			continue
		}
		cp.proven[pr.addr] = buf
	}
	cp.io = append(cp.io, io...)
	return ok, scanned, missAddr
}

// reduxTotal folds the checkpoint's contributions for the span's i-th
// reduction object ro in ascending worker-id order, starting from the
// operator's identity. The fixed fold order keeps floating-point reductions
// bit-deterministic regardless of the order workers happened to contribute.
// Returns nil if no worker contributed; the total comes from cp.bufs, and
// the caller puts it back.
func (cp *checkpoint) reduxTotal(i int, ro reduxObj) ([]byte, error) {
	var acc []byte
	for _, contrib := range cp.redux[i] {
		if contrib == nil {
			continue
		}
		if acc == nil {
			acc = cp.bufs.get(int(ro.size), false)
			if err := fillIdentity(ro.op, ro.elemSize, acc); err != nil {
				cp.bufs.put(acc)
				return nil, err
			}
		}
		if err := Combine(ro.op, ro.elemSize, acc, contrib); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// sortedIO sorts the interval's deferred output into iteration order, in
// place, and returns it.
func (cp *checkpoint) sortedIO() []ioRec {
	slices.SortStableFunc(cp.io, func(a, b ioRec) int { return cmp.Compare(a.iter, b.iter) })
	return cp.io
}

// oldest returns the first checkpoint of cp's chain; following next from
// it reaches cp.
func (cp *checkpoint) oldest() *checkpoint {
	c := cp
	for c.prev != nil {
		c = c.prev
	}
	return c
}

// carryValidatePage folds one interval's shadow page sh into the carried
// (collapsed) metadata prev for the same page and returns the page offset of
// the first cross-interval privacy violation the fold observes (-1 = clean):
// a byte read as live-in after some earlier interval wrote it, or written
// after some earlier interval read it as live-in. prev is mutated in place;
// on a violation it is left partially folded, which is fine because
// validation aborts the span.
func carryValidatePage(prev, sh []byte) int {
	for off := 0; off < len(sh); off++ {
		// Only MetaLiveIn (0) bytes are no-ops here — an all-zero word can
		// be skipped whole. (MetaOldWrite must still fold into prev.)
		if off&7 == 0 && off+8 <= len(sh) &&
			binary.LittleEndian.Uint64(sh[off:]) == 0 {
			off += 7
			continue
		}
		m := sh[off]
		if m == MetaLiveIn {
			continue
		}
		if m == MetaReadLiveIn && prev[off] == MetaOldWrite {
			return off // read "live-in" of a byte written earlier
		}
		if m >= MetaTSBase && prev[off] == MetaReadLiveIn {
			return off // write after a live-in read
		}
		if m == MetaReadLiveIn {
			if prev[off] != MetaOldWrite {
				prev[off] = MetaReadLiveIn
			}
		} else {
			prev[off] = MetaOldWrite
		}
	}
	return -1
}

// crossValidate detects privacy violations spanning checkpoint intervals.
// It walks the chain oldest-first, carrying collapsed metadata, and returns
// the id of the first violating checkpoint with the private-heap address of
// the violating byte, or (-1, 0). Call only after the span has quiesced.
// The carried pages come zeroed from cp.bufs and go back on return.
func (cp *checkpoint) crossValidate() (id int64, addr uint64) {
	carried := cp.carried
	defer func() {
		for _, prev := range carried {
			cp.bufs.put(prev)
		}
		clear(carried)
	}()
	for c := cp.oldest(); ; c = c.next {
		for base, sh := range c.shadow {
			prev, have := carried[base]
			if !have {
				prev = cp.bufs.get(vm.PageSize, true)
				carried[base] = prev
			}
			if off := carryValidatePage(prev, sh); off >= 0 {
				return c.id, (base &^ ir.ShadowBit) + uint64(off)
			}
		}
		if c == cp {
			return -1, 0
		}
	}
}

// installOwnDataInto applies only this checkpoint's merged private-heap
// bytes and its snapshots of the span's proven ranges (not its
// predecessors', not reductions) to the master address space; installInto
// composes it over a whole chain.
func (cp *checkpoint) installOwnDataInto(master *vm.AddressSpace, proven []provenRange) (int64, error) {
	var bytes int64
	for base, sh := range cp.shadow {
		privBase := base &^ ir.ShadowBit
		data := cp.data[privBase]
		if data == nil {
			continue
		}
		off := 0
		for off < len(sh) {
			if off&7 == 0 && off+8 <= len(sh) &&
				!wordHasTS(binary.LittleEndian.Uint64(sh[off:])) {
				off += 8 // no surviving write in this word
				continue
			}
			if sh[off] < MetaTSBase {
				off++
				continue
			}
			// Batch the contiguous run of surviving bytes into one write.
			run := off + 1
			for run < len(sh) && sh[run] >= MetaTSBase {
				run++
			}
			if err := master.WriteBytes(privBase+uint64(off), data[off:run]); err != nil {
				return bytes, err
			}
			bytes += int64(run - off)
			off = run
		}
	}
	// Statically-privatized objects carry no shadow marks; their interval-
	// final content was snapshotted wholesale from the worker that ran the
	// interval's last iteration. It installs after the merged per-byte data
	// deliberately: a stray marked write to such an object (a multi-target
	// access that kept its marks) from an earlier iteration is dead under
	// the full-overwrite proof, so the snapshot must win.
	for _, pr := range proven {
		buf := cp.proven[pr.addr]
		if err := master.WriteBytes(pr.addr, buf); err != nil {
			return bytes, err
		}
		bytes += int64(len(buf))
	}
	return bytes, nil
}

// installReduxInto folds the checkpoint's reduction totals into the master
// address space. Worker redux contributions are cumulative (a worker's
// snapshot at interval k covers all of its iterations through k), so this
// must run exactly once per span, against the LAST valid checkpoint — never
// per interval.
func (cp *checkpoint) installReduxInto(master *vm.AddressSpace, reduxObjs []reduxObj) (int64, error) {
	var bytes int64
	for i, ro := range reduxObjs {
		contrib, err := cp.reduxTotal(i, ro)
		if err != nil {
			return bytes, err
		}
		if contrib == nil {
			continue
		}
		cur := cp.bufs.get(int(ro.size), false)
		err = master.ReadBytes(ro.addr, cur)
		if err == nil {
			err = Combine(ro.op, ro.elemSize, cur, contrib)
		}
		if err == nil {
			err = master.WriteBytes(ro.addr, cur)
		}
		cp.bufs.put(cur)
		cp.bufs.put(contrib)
		if err != nil {
			return bytes, err
		}
		bytes += ro.size
	}
	return bytes, nil
}

// installInto applies the chain's merged private state and reduction totals
// to the master address space: the simulated equivalent of installing a
// checkpoint's heap images via mmap.
func (cp *checkpoint) installInto(master *vm.AddressSpace, reduxObjs []reduxObj, proven []provenRange) (int64, error) {
	var bytes int64
	for c := cp.oldest(); ; c = c.next {
		b, err := c.installOwnDataInto(master, proven)
		bytes += b
		if err != nil {
			return bytes, err
		}
		if c == cp {
			break
		}
	}
	b, err := cp.installReduxInto(master, reduxObjs)
	bytes += b
	return bytes, err
}
