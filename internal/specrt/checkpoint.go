package specrt

import (
	"encoding/binary"
	"sort"
	"sync"

	"privateer/internal/ir"
	"privateer/internal/profiling"
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

// liveObj is one entry of the runtime's object registries (RT.reduxObjs,
// RT.sepObjs): a live object's identity and range. What a span does with it
// is decided per invocation, from the invoked region's assignment.
type liveObj struct {
	obj  profiling.Object
	addr uint64
	size int64
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
	// prev is the previous checkpoint in the chain (nil for the first).
	prev *checkpoint

	// data holds merged private-heap byte values for bytes written this
	// interval; shadow holds the interval's combined metadata (zero =
	// untouched this interval).
	data   map[uint64][]byte
	shadow map[uint64][]byte
	// redux holds each worker's contribution per reduction object, keyed
	// by worker id; snapshots are cumulative per worker, so an object's
	// contributions reflect all iterations up to this interval. They are
	// folded together in worker-id order at install time: combination
	// order must not depend on goroutine scheduling, or floating-point
	// reductions would produce schedule-dependent low bits.
	redux map[uint64]map[int][]byte
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
	// bufs is where the pages and snapshots below come from and, once the
	// span is over, go back to; nil allocates.
	bufs *bufFree
}

func newCheckpoint(id, base, limit int64, prev *checkpoint) *checkpoint {
	return &checkpoint{
		id: id, base: base, limit: limit, prev: prev,
		data:   map[uint64][]byte{},
		shadow: map[uint64][]byte{},
		redux:  map[uint64]map[int][]byte{},
		proven: map[uint64][]byte{},
	}
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
	for _, ro := range reduxObjs {
		buf := cp.bufs.get(int(ro.size), false)
		if err := ws.ReadBytes(ro.addr, buf); err != nil {
			miss(ro.addr)
			continue
		}
		contribs, have := cp.redux[ro.addr]
		if !have {
			contribs = map[int][]byte{}
			cp.redux[ro.addr] = contribs
		}
		contribs[wid] = buf
	}
	for _, pr := range proven {
		buf := cp.bufs.get(int(pr.size), false)
		if err := ws.ReadBytes(pr.addr, buf); err != nil {
			miss(pr.addr)
			continue
		}
		cp.proven[pr.addr] = buf
	}
	cp.io = append(cp.io, io...)
	return ok, scanned, missAddr
}

// reduxTotal folds the checkpoint's contributions for ro in ascending
// worker-id order, starting from the operator's identity. The fixed fold
// order keeps floating-point reductions bit-deterministic regardless of the
// order workers happened to contribute. Returns nil if no worker
// contributed; the total comes from cp.bufs, and the caller puts it back.
func (cp *checkpoint) reduxTotal(ro reduxObj) ([]byte, error) {
	contribs := cp.redux[ro.addr]
	if len(contribs) == 0 {
		return nil, nil
	}
	id, err := Identity(ro.op, ro.elemSize)
	if err != nil {
		return nil, err
	}
	acc := cp.bufs.get(int(ro.size), false)
	for off := int64(0); off < ro.size; off += ro.elemSize {
		copy(acc[off:off+ro.elemSize], id)
	}
	wids := make([]int, 0, len(contribs))
	for w := range contribs {
		wids = append(wids, w)
	}
	sort.Ints(wids)
	for _, w := range wids {
		if err := Combine(ro.op, ro.elemSize, acc, contribs[w]); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// sortedIO returns the interval's deferred output in iteration order.
func (cp *checkpoint) sortedIO() []ioRec {
	out := append([]ioRec(nil), cp.io...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].iter < out[j].iter })
	return out
}

// chain returns the checkpoints from the first interval through cp, oldest
// first.
func (cp *checkpoint) chain() []*checkpoint {
	var out []*checkpoint
	for c := cp; c != nil; c = c.prev {
		out = append(out, c)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
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
	carried := map[uint64][]byte{} // shadow page base -> collapsed meta
	defer func() {
		for _, prev := range carried {
			cp.bufs.put(prev)
		}
	}()
	for _, c := range cp.chain() {
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
	}
	return -1, 0
}

// installOwnDataInto applies only this checkpoint's merged private-heap
// bytes (not its predecessors', not reductions) to the master address
// space; installInto composes it over a whole chain.
func (cp *checkpoint) installOwnDataInto(master *vm.AddressSpace) (int64, error) {
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
	if len(cp.proven) > 0 {
		addrs := make([]uint64, 0, len(cp.proven))
		for addr := range cp.proven {
			addrs = append(addrs, addr)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, addr := range addrs {
			buf := cp.proven[addr]
			if err := master.WriteBytes(addr, buf); err != nil {
				return bytes, err
			}
			bytes += int64(len(buf))
		}
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
	for _, ro := range reduxObjs {
		contrib, err := cp.reduxTotal(ro)
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
func (cp *checkpoint) installInto(master *vm.AddressSpace, reduxObjs []reduxObj) (int64, error) {
	var bytes int64
	for _, c := range cp.chain() {
		b, err := c.installOwnDataInto(master)
		bytes += b
		if err != nil {
			return bytes, err
		}
	}
	b, err := cp.installReduxInto(master, reduxObjs)
	bytes += b
	return bytes, err
}
