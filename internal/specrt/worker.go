package specrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// spanState coordinates one parallel execution span: from a start iteration
// to completion or to the first misspeculation (Figure 5 of the paper).
type spanState struct {
	rt   *RT
	ri   *RegionInfo
	live []uint64
	// start and hi bound the span's iterations; k is the checkpoint period.
	start, hi, k int64
	// inv is the enclosing region invocation's sequence number.
	inv int64
	// redux is the registry snapshot the span works against: one consistent,
	// address-ordered view shared by worker init, checkpoint merges and
	// install, immune to concurrent registry changes.
	redux []reduxObj
	// proven is the span's snapshot of statically-privatized ranges: their
	// accesses carry no shadow marks, so each interval's final content is
	// captured wholesale from the worker that ran the interval's last
	// iteration and installed like data pages. provenRO is the snapshot of
	// proven read-only ranges, consumed by the SepAudit oracle.
	proven   []provenRange
	provenRO []provenRange
	// roProtSkip drops the worker-side write protection of the read-only
	// heap: the region statically cannot write it (see roProtSkippable).
	roProtSkip bool

	mu          sync.Mutex
	checkpoints []*checkpoint

	// misspecIter is the earliest misspeculated iteration (-1 = none);
	// guarded by flagMu for the atomic-min update.
	flagMu      sync.Mutex
	flagged     atomic.Bool
	misspecIter int64

	// wg is the fleet's join.
	wg sync.WaitGroup
}

// flag records a misspeculation the worker detected at iteration i,
// keeping the span's earliest, and counts it in w.local. addr is the
// faulting address when the violation concerns a specific memory location
// (0 otherwise); it feeds per-site attribution.
func (w *worker) flag(i int64, cause, site string, addr uint64) {
	sp := w.sp
	sp.flagMu.Lock()
	if sp.misspecIter < 0 || i < sp.misspecIter {
		sp.misspecIter = i
	}
	sp.flagMu.Unlock()
	sp.flagged.Store(true)
	w.local.Misspecs++
	sp.rt.noteMisspec(sp.ri.Outline.RegionFn.Name, cause, site, addr)
	sp.rt.Cfg.Trace.Instant(obs.Event{Kind: obs.KMisspec,
		Invocation: sp.inv, Worker: w.id, Iter: i, Cause: cause, Site: site,
		A: int64(addr)})
}

// misspecInterval returns the interval id of the earliest misspeculation,
// or -1.
func (sp *spanState) misspecInterval() int64 {
	sp.flagMu.Lock()
	defer sp.flagMu.Unlock()
	if sp.misspecIter < 0 {
		return -1
	}
	return (sp.misspecIter - sp.start) / sp.k
}

// checkpointFor returns the checkpoint object for interval c, creating the
// chain lazily. The first worker to reach an interval allocates its object;
// invoke counts the chain once the span has joined.
func (sp *spanState) checkpointFor(c int64) *checkpoint {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for int64(len(sp.checkpoints)) <= c {
		id := int64(len(sp.checkpoints))
		var prev *checkpoint
		if id > 0 {
			prev = sp.checkpoints[id-1]
		}
		base := sp.start + id*sp.k
		limit := min(base+sp.k, sp.hi)
		cp := sp.rt.pool.bufs.checkpoint(id, base, limit, prev)
		for len(cp.redux) < len(sp.redux) {
			cp.redux = append(cp.redux, nil)
		}
		sp.checkpoints = append(sp.checkpoints, cp)
		sp.rt.Cfg.Trace.Instant(obs.Event{Kind: obs.KCheckpoint,
			Invocation: sp.inv, Worker: -1, Iter: id, A: base, B: limit})
	}
	return sp.checkpoints[c]
}

// recycle returns the span's checkpoints, and every buffer they own, to
// the free list, and drops the span's hold on its run. Call on every exit,
// once the valid prefix is installed and committed or the span has failed:
// nothing reads a checkpoint of the span after that.
func (sp *spanState) recycle() {
	for _, cp := range sp.checkpoints {
		cp.recycle()
	}
	clear(sp.checkpoints)
	sp.checkpoints = sp.checkpoints[:0]
	sp.rt, sp.ri, sp.live = nil, nil, nil
}

// validate runs the second-phase cross-interval chain validation over the
// checkpoints up to last, with tracing. It returns the first violating
// interval id (-1 = clean) and the faulting private-heap address (0 when
// clean).
func (sp *spanState) validate(last *checkpoint) (int64, uint64) {
	t := startTimer()
	c, addr := last.crossValidate()
	t.stop(&sp.rt.Stats.ValidateNS, sp.rt.Cfg.Trace, obs.Event{Kind: obs.KValidate,
		Invocation: sp.inv, Worker: -1, Iter: last.id, A: c})
	return c, addr
}

// run executes the span. It returns the last fully valid checkpoint (nil if
// none completed), the earliest misspeculated iteration (-1 for a clean
// finish), and any hard error.
func (sp *spanState) run() (*checkpoint, int64, error) {
	rt := sp.rt
	tr := rt.Cfg.Trace
	workers := int(rt.price().Fleet(sp.hi - sp.start))
	nIntervals := (sp.hi - sp.start + sp.k - 1) / sp.k
	tr.Instant(obs.Event{Kind: obs.KPhase,
		Invocation: sp.inv, Worker: -1, Iter: -1, Cause: "fast"})
	ws, err := sp.spawnFleet(workers)
	if err != nil {
		return nil, -1, err
	}

	sp.wg.Add(len(ws))
	for _, w := range ws {
		go w.body()
	}
	sp.wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			err := w.err
			sp.retire(ws...)
			return nil, -1, err
		}
	}

	// Simulated-time accounting: the span costs its fleet's spawn and join
	// plus the slowest worker, and consumes capacity on every worker for its
	// whole duration.
	spawnJoin := rt.price().SpawnJoin(sp.hi - sp.start)
	var maxW int64
	sim := &rt.Sim
	for _, w := range ws {
		maxW = max(maxW, w.simTime())
		sim.UsefulSteps += w.it.Steps
		sim.PrivReadCost += w.local.PrivReadBytes * SimPrivacyPerByte
		sim.PrivWriteCost += w.local.PrivWriteBytes * SimPrivacyPerByte
		sim.CheckpointCost += w.simCheckpoint
		sim.OtherCheckCost += w.simOther
	}
	spanTime := spawnJoin + maxW
	sim.RegionTime += spanTime
	sim.RegionCapacity += int64(workers) * spanTime
	sim.SpawnCost += spawnJoin

	sp.retire(ws...)

	tr.Instant(obs.Event{Kind: obs.KPhase,
		Invocation: sp.inv, Worker: -1, Iter: -1, Cause: "validate"})
	lastValid, misspecAt := sp.finishSync(nIntervals)
	return lastValid, misspecAt, nil
}

// spawnFleet privatizes the span's workers: one address-space clone (or
// warm reclone) plus interpreter setup each. The whole step is one timed
// section on the runtime lane — Stats.SpawnNS and a KSpawn event saying how
// much of it the warmed pool satisfied — closed on the hard-error exit too;
// the per-worker KWorkerSpawn instants fall inside it.
func (sp *spanState) spawnFleet(workers int) ([]*worker, error) {
	rt := sp.rt
	tr := rt.Cfg.Trace
	t := startTimer()
	warm0 := rt.Stats.WarmSpawns
	ws := rt.workers[:0]
	var err error
	for id := 0; id < workers; id++ {
		var w *worker
		if w, err = newWorker(sp, id, workers); err != nil {
			break
		}
		ws = append(ws, w)
		tr.Instant(obs.Event{Kind: obs.KWorkerSpawn,
			Invocation: sp.inv, Worker: id, Iter: -1})
	}
	rt.workers = ws
	warm := rt.Stats.WarmSpawns - warm0
	cause := "cold"
	switch {
	case workers > 0 && warm == int64(workers):
		cause = "warm"
	case warm > 0:
		cause = "mixed"
	}
	t.stop(&rt.Stats.SpawnNS, tr, obs.Event{Kind: obs.KSpawn,
		Invocation: sp.inv, Worker: -1, Iter: -1, A: warm, B: int64(workers), Cause: cause})
	if err != nil {
		sp.retire(ws...)
	}
	return ws, err
}

// retire is the fleet's fold: it adds each worker's counts into the run's
// (w.local into rt.Stats, the space's vm counts into the master's), then
// parks the worker's slot in the pool and gives the master its tree and its
// allocator state back. Checkpoints copy what they keep out of worker
// spaces, so every exit of run retires every worker it spawned, after the
// fleet has joined: a dropped space would drain the pool, keep the master
// copying on write and lose its counts. The worker lets go of the span and
// of its deferred output: an RT → worker → span → RT cycle keeps a run
// alive, and a parked slot keeps no run's text. Its counts stay readable
// until the slot is drawn again.
func (sp *spanState) retire(ws ...*worker) {
	rt := sp.rt
	for _, w := range ws {
		rt.Stats.addWorker(&w.local)
		rt.master.AS.Stats.Add(w.as.Stats)
		s := w.slot
		clear(w.io)
		w.sp, w.slot, w.as, w.it, w.io = nil, nil, nil, nil, w.io[:0]
		rt.pool.put(rt.prog, s)
	}
	rt.master.AS.Reown()
}

// finishSync is the span's join: the workers have quiesced, and the master
// chain-validates the checkpoints on its critical path (install and commit
// follow in invoke). It returns the last valid checkpoint and the earliest
// misspeculated iteration, as run does. Validation time accrues to
// Stats.JoinNS.
func (sp *spanState) finishSync(nIntervals int64) (*checkpoint, int64) {
	join := startTimer()
	defer join.stop(&sp.rt.Stats.JoinNS, nil, obs.Event{})
	// Without a worker-detected misspeculation the whole chain is the
	// candidate; with one at interval mi, the prefix below mi is — and it may
	// itself hide an earlier cross-interval violation.
	mi, iter := nIntervals, int64(-1)
	if sp.flagged.Load() {
		mi = sp.misspecInterval()
		sp.flagMu.Lock()
		iter = sp.misspecIter
		sp.flagMu.Unlock()
	}
	lastValid := sp.checkpointBefore(mi)
	if lastValid != nil {
		if c, addr := sp.validate(lastValid); c >= 0 {
			lastValid, iter = sp.checkpointBefore(c), sp.crossIntervalMisspec(c, addr)
		}
	}
	return lastValid, iter
}

// checkpointBefore returns the checkpoint of the interval preceding mi: the
// last valid one when interval mi misspeculated (nil when mi is the first).
func (sp *spanState) checkpointBefore(mi int64) *checkpoint {
	if mi == 0 {
		return nil
	}
	return sp.checkpointFor(mi - 1)
}

// crossIntervalMisspec records the cross-interval privacy violation chain
// validation found at interval c (faulting address addr) and returns the
// iteration recovery must re-execute through: the interval's last.
func (sp *spanState) crossIntervalMisspec(c int64, addr uint64) int64 {
	const cause = "privacy violated (cross-interval)"
	rt := sp.rt
	iter := sp.checkpointFor(c).limit - 1
	rt.Stats.Misspecs++
	rt.noteMisspec(sp.ri.Outline.RegionFn.Name, cause, "", addr)
	rt.Cfg.Trace.Instant(obs.Event{Kind: obs.KMisspec, Invocation: sp.inv,
		Worker: -1, Iter: iter, Cause: cause, A: int64(addr)})
	return iter
}

// worker is one speculative worker process: the worker of the pool slot
// it runs on (slot), whose space and interpreter it uses for one span.
type worker struct {
	sp      *spanState
	slot    *warmSlot
	id      int
	stride  int
	as      *vm.AddressSpace
	it      *interp.Interp
	curIter int64
	curTS   byte
	io      []ioRec
	// args is the iteration call's arguments, onPrint the hook deferring
	// output into io, body the span goroutine's function (runSpan), err
	// run's result. The slot keeps the buffers and closures across spans.
	args    []uint64
	onPrint func(in *ir.Instr, text string) bool
	body    func()
	err     error

	shortBaseline int

	// shPN and shPage memo the shadow page privRange resolved last. A
	// shadow address mirrors its private address by one OR, so the two
	// pages share a TLB slot: without the memo each privacy mark would
	// evict the data page it guards. resetShadow drops it.
	shPN   uint64
	shPage []byte

	// Simulated-time accounting (see sim.go); the privacy checks' share is
	// SimPrivacyPerByte times local's PrivRead/PrivWrite bytes.
	simCheckpoint int64
	simOther      int64

	// local is the worker's private total of its Stats fields over the
	// span: DeferredIO and the PrivRead/PrivWrite bytes per dynamic check,
	// CheckpointNS and ProvenRangeBytes per contribution, Misspecs,
	// WorkerBusyNS, and what foldStats moves in (the interpreter's
	// SeparationChecks and Predictions, the privacy clock's window). retire
	// adds it into rt.Stats once the fleet has joined. Only this worker's
	// goroutine writes it while the span runs, so no counter is shared.
	local Stats
	// privChecks and privNS are the privacy clock's window, reads then
	// writes: the checks made and the nanoseconds sampled since the last
	// foldStats.
	privChecks, privNS [2]int64
}

// simTime returns the worker's total simulated busy time.
func (w *worker) simTime() int64 {
	privBytes := w.local.PrivReadBytes + w.local.PrivWriteBytes
	return w.it.Steps + privBytes*SimPrivacyPerByte + w.simCheckpoint + w.simOther
}

// foldStats moves the interpreter's check counters and the privacy clock's
// window into w.local, and the checks' simulated cost into simOther. It
// runs at every interval contribution and on every exit of run, so nothing
// a squashed worker counted is lost.
func (w *worker) foldStats() {
	l, it := &w.local, w.it
	w.simOther += it.SepChecks*SimSeparationCheck + it.Predictions*SimPredict
	l.SeparationChecks += it.SepChecks
	l.Predictions += it.Predictions
	it.SepChecks, it.Predictions = 0, 0
	// Private timed one check in privTimeEvery, the first one included.
	for i, c := range [...]struct{ n, ns *int64 }{
		{&l.PrivReadChecks, &l.PrivReadNS}, {&l.PrivWriteChecks, &l.PrivWriteNS}} {
		n := w.privChecks[i]
		if timed := (n + privTimeEvery - 1) / privTimeEvery; timed > 0 {
			*c.ns += w.privNS[i] * n / timed
		}
		*c.n += n
	}
	w.privChecks, w.privNS = [2]int64{}, [2]int64{}
}

// newWorker readies worker id of sp on a slot from the pool, keeping the
// buffers the slot's worker held from the span before.
func newWorker(sp *spanState, id, stride int) (*worker, error) {
	rt := sp.rt
	// Each worker space counts its page events from zero; retire adds them
	// into the master's (Figure 8 accounting). A warmed spawn re-clones a
	// pooled address space over this master in place and takes its
	// interpreter, recycled when it was parked — same semantics as the cold
	// path below, minus the per-spawn allocation of TLB arrays, heap states,
	// maps and buffers.
	slot := rt.pool.get(rt.prog)
	if slot != nil {
		slot.as.RecloneFrom(rt.master.AS)
		rt.Stats.WarmSpawns++
	} else {
		// Sharing the runtime's decoded program means each region function
		// is decoded once, not once per worker per span.
		slot = newSlot(rt.prog, rt.master.AS.Clone())
	}
	w := &slot.w
	*w = worker{sp: sp, slot: slot, id: id, stride: stride, as: slot.as, it: slot.it,
		io: w.io[:0], args: w.args[:0], onPrint: w.onPrint, body: w.body}
	if w.body == nil {
		w.body = w.runSpan
	}
	// Workers see the read-only heap as truly read-only, and the
	// reduction heap starts at the operator's identity. A failure here
	// means the worker would speculate from a corrupt base state — that is
	// a hard error, not something to discover later as a bogus result.
	// When the prover showed the region cannot write that heap at all,
	// the protection is dead weight and is skipped (audit mode keeps it).
	if !sp.roProtSkip {
		w.as.SetProt(ir.HeapReadOnly, vm.ProtRead)
	}
	if err := w.initRedux(); err != nil {
		sp.retire(w)
		return nil, err
	}
	w.it.AdoptLayout(rt.master.GlobalLayout())
	w.shortBaseline = w.as.LiveObjects(ir.HeapShortLived)
	w.installHooks()
	return w, nil
}

// runSpan is the worker's span goroutine: it runs the worker's share and
// joins the fleet.
func (w *worker) runSpan() {
	sp := w.sp
	defer sp.wg.Done()
	busy := startTimer()
	w.err = w.run()
	busy.stop(&w.local.WorkerBusyNS, sp.rt.Cfg.Trace, obs.Event{Kind: obs.KWorkerJoin,
		Invocation: sp.inv, Worker: w.id, Iter: -1})
}

// initRedux writes the operator's identity over every reduction object of
// the span in the worker's space, one write per object.
func (w *worker) initRedux() error {
	bufs := &w.sp.rt.pool.bufs
	for _, ro := range w.sp.redux {
		img := bufs.get(int(ro.size), false)
		if err := fillIdentity(ro.op, ro.elemSize, img); err != nil {
			bufs.put(img)
			return fmt.Errorf("specrt: worker %d: redux %#x identity: %w", w.id, ro.addr, err)
		}
		err := w.as.WriteBytes(ro.addr, img)
		bufs.put(img)
		if err != nil {
			return fmt.Errorf("specrt: worker %d: redux %#x init: %w", w.id, ro.addr, err)
		}
	}
	return nil
}

// installHooks makes the worker its interpreter's Speculator and defers
// its output.
func (w *worker) installHooks() {
	rt := w.sp.rt
	w.it.Spec = w
	h := &w.it.Hooks
	if w.onPrint == nil {
		w.onPrint = func(in *ir.Instr, text string) bool {
			w.io = append(w.io, ioRec{iter: w.curIter, text: text})
			w.local.DeferredIO++
			return true
		}
	}
	h.OnPrint = w.onPrint
	if rt.Cfg.SepAudit && (len(w.sp.proven) > 0 || len(w.sp.provenRO) > 0) {
		w.installAuditHooks()
	}
}

// overlapRange intersects [addr, addr+size) with one proven range,
// returning the overlapping byte range (empty when disjoint).
func overlapRange(pr provenRange, addr uint64, size int64) (uint64, uint64) {
	lo, hi := addr, addr+uint64(size)
	if pr.addr > lo {
		lo = pr.addr
	}
	if end := pr.addr + uint64(pr.size); end < hi {
		hi = end
	}
	return lo, hi
}

// installAuditHooks arms the SepAudit oracle on this worker: every load
// and store is checked against the span's statically-proven ranges. A
// store into a proven read-only object, or a read of a statically-
// privatized byte the current iteration has not (re)written, contradicts
// the static claim that justified dropping its dynamic machinery — the
// oracle counts it loudly instead of letting the corruption stay silent.
// A sound prover never trips either condition: proofs guarantee no region
// write targets a proven read-only object and every read of a privatized
// object is dominated by same-iteration covering writes.
func (w *worker) installAuditHooks() {
	rt := w.sp.rt
	h := &w.it.Hooks
	// written holds the bytes of statically-privatized ranges the current
	// iteration has written so far; iter tells which iteration the set
	// reflects (it resets lazily on change).
	written, iter := map[uint64]bool{}, int64(-1<<62)
	syncIter := func() {
		if iter != w.curIter {
			iter = w.curIter
			clear(written)
		}
	}
	h.OnStore = func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
		syncIter()
		for _, pr := range w.sp.proven {
			lo, hi := overlapRange(pr, addr, size)
			for b := lo; b < hi; b++ {
				written[b] = true
			}
		}
		for _, pr := range w.sp.provenRO {
			if lo, hi := overlapRange(pr, addr, size); lo < hi {
				rt.noteSepViolation(fmt.Sprintf(
					"iter %d: store %s writes proven read-only range [%#x,%#x)",
					w.curIter, in, lo, hi))
			}
		}
	}
	h.OnLoad = func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
		syncIter()
		for _, pr := range w.sp.proven {
			lo, hi := overlapRange(pr, addr, size)
			for b := lo; b < hi; b++ {
				if !written[b] {
					rt.noteSepViolation(fmt.Sprintf(
						"iter %d: load %s reads statically-privatized byte %#x before the iteration rewrote it",
						w.curIter, in, b))
					break
				}
			}
		}
	}
}

// privTimeEvery is the sampling period of the privacy-check clock: a clock
// pair around every check was ~4 % of a speculative run. A prime, so the
// timed checks do not line up with an array walk's page crossings.
const privTimeEvery = 61

// Private implements interp.Speculator: one privacy check of count
// elements of size bytes, stride apart (a plain access is a span of one),
// counted into the privacy clock's window and w.local.
// Only the first check after each foldStats and every privTimeEvery-th after
// it is timed; foldStats scales the sampled time to all of them.
func (w *worker) Private(_ *ir.Instr, addr uint64, count, stride, size int64, isWrite bool) error {
	rw, bytes := 0, &w.local.PrivReadBytes
	if isWrite {
		rw, bytes = 1, &w.local.PrivWriteBytes
	}
	var t0 time.Time
	if w.privChecks[rw]%privTimeEvery == 0 {
		t0 = time.Now()
	}
	err := w.privSpan(addr, count, stride, size, isWrite)
	if !t0.IsZero() {
		w.privNS[rw] += int64(time.Since(t0))
	}
	if n := count * size; n > 0 {
		*bytes += n
	}
	w.privChecks[rw]++
	return err
}

// privSpan applies Table 2 transitions for a span op: count elements of
// size bytes each, consecutive elements stride bytes apart. A dense span
// (stride == size) collapses to one contiguous range; count <= 0 is a
// no-op, which lets promoted checks use a dynamically computed trip count
// without proving the loop is entered.
func (w *worker) privSpan(addr uint64, count, stride, size int64, isWrite bool) error {
	if count <= 0 || size <= 0 {
		return nil
	}
	if stride == size {
		return w.privRange(addr, count*size, isWrite)
	}
	for k := int64(0); k < count; k++ {
		if err := w.privRange(addr+uint64(k)*uint64(stride), size, isWrite); err != nil {
			return err
		}
	}
	return nil
}

// privRange marks [addr, addr+n) with one page-table resolution per shadow
// page instead of one per byte: the page is pinned writable once and the
// transitions run over its backing slice directly.
func (w *worker) privRange(addr uint64, n int64, isWrite bool) error {
	for n > 0 {
		sh := ir.ShadowAddr(addr)
		off := int64(sh & (vm.PageSize - 1))
		chunk := int64(vm.PageSize) - off
		if chunk > n {
			chunk = n
		}
		if pn := sh >> vm.PageShift; w.shPage == nil || pn != w.shPN {
			data, err := w.as.WritablePage(sh)
			if err != nil {
				return err
			}
			w.shPN, w.shPage = pn, data
		}
		seg := w.shPage[off : off+chunk]
		for i := range seg {
			m := seg[i]
			var newMeta byte
			var miss bool
			if isWrite {
				newMeta, miss = WriteTransition(m, w.curTS)
			} else {
				newMeta, miss = ReadTransition(m, w.curTS)
			}
			if miss {
				return &interp.MisspecError{Reason: "privacy violated (fast phase)", Addr: addr + uint64(i)}
			}
			if newMeta != m {
				seg[i] = newMeta
			}
		}
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}

// resetShadow applies ResetMeta, which collapses timestamps to old-write,
// to the worker's shadow after a checkpoint contribution. The dirty walk
// covers every shadow page (all of them are worker-created, hence dirty)
// without scanning the rest of the footprint; words holding no timestamp are
// skipped eight bytes at a time.
func (w *worker) resetShadow() {
	w.shPage = nil
	w.as.DirtyHeapPages(ir.HeapShadow, func(base uint64, data []byte) {
		for i := 0; i < len(data); i += 8 {
			if !wordHasTS(binary.LittleEndian.Uint64(data[i:])) {
				continue
			}
			for j := i; j < i+8; j++ {
				data[j] = ResetMeta(data[j])
			}
		}
	})
}

// misspecCause classifies a squashing error for the trace: the violated
// property, the instruction that detected it, and the faulting address when
// the violation concerns one (0 otherwise).
func misspecCause(err error) (cause, site string, addr uint64) {
	var m *interp.MisspecError
	if errors.As(err, &m) {
		return m.Reason, m.Site(), m.Addr
	}
	var fault *vm.Fault
	if errors.As(err, &fault) {
		return "memory protection fault", fmt.Sprintf("%#x", fault.Addr), fault.Addr
	}
	return err.Error(), "", 0
}

// deal is the cyclic deal of the checkpoint interval [base, limit) over a
// fleet of w workers: worker id runs first, then every w-th iteration below
// limit, count in all. Every interval is dealt afresh from its base.
func deal(base, limit int64, id, w int) (first, count int64) {
	first = base + int64(id)
	if first >= limit {
		return first, 0
	}
	return first, (limit - first + int64(w) - 1) / int64(w)
}

// maxShare is the busiest worker's iteration count when a fleet of w
// workers deals n iterations in checkpoint intervals of k.
func maxShare(n, k int64, w int) int64 {
	var most int64
	for id := range w {
		var share int64
		for base := int64(0); base < n; base += k {
			_, c := deal(base, min(base+k, n), id, w)
			share += c
		}
		most = max(most, share)
	}
	return most
}

// run executes the worker's share of the span: cyclically assigned
// iterations, a checkpoint contribution per interval, misspeculation checks
// after every iteration.
func (w *worker) run() error {
	sp := w.sp
	rt := sp.rt
	// One deferred fold covers every way out, the squash returns included.
	defer w.foldStats()
	w.args = append(append(w.args[:0], 0), sp.live...)
	callArgs := w.args

	nIntervals := (sp.hi - sp.start + sp.k - 1) / sp.k
	for c := int64(0); c < nIntervals; c++ {
		if sp.flagged.Load() {
			if mi := sp.misspecInterval(); mi >= 0 && c >= mi {
				return nil // squash: past the failed checkpoint
			}
		}
		base := sp.start + c*sp.k
		limit := min(base+sp.k, sp.hi)
		first, count := deal(base, limit, w.id, w.stride)
		for i := first; i < limit; i += int64(w.stride) {
			w.curIter = i
			w.curTS = TimestampFor(i, base)
			callArgs[0] = uint64(i)
			_, err := w.it.Call(sp.ri.Outline.IterFn, callArgs...)
			if err != nil {
				var fault *vm.Fault
				if interp.IsMisspec(err) || errors.As(err, &fault) {
					// Memory-protection faults during speculation (a store
					// into the read-only heap, say) are misspeculations:
					// the paper's workers take the same path on SIGSEGV.
					cause, site, faddr := misspecCause(err)
					if rt.Cfg.SepAudit && faddr != 0 {
						// The hooks fire only after a successful access, so a
						// store rejected by the read-only page protection is
						// audited here: faulting inside a proven range means
						// the static claim itself was wrong.
						for _, pr := range sp.provenRO {
							if faddr >= pr.addr && faddr < pr.addr+uint64(pr.size) {
								rt.noteSepViolation(fmt.Sprintf(
									"iter %d: %s at %#x inside proven read-only range [%#x,%#x)",
									i, cause, faddr, pr.addr, pr.addr+uint64(pr.size)))
								break
							}
						}
					}
					w.flag(i, cause, site, faddr)
					return nil
				}
				return err
			}
			// Object-lifetime speculation: short-lived objects must die
			// by the end of their iteration.
			w.simOther += SimShortLivedCheck
			if w.as.LiveObjects(ir.HeapShortLived) != w.shortBaseline {
				w.flag(i, "short-lived object escaped", "", 0)
				return nil
			}
			// Artificial misspeculation injection (Figure 9).
			if rt.inject(i) {
				w.flag(i, "injected", "", 0)
				return nil
			}
			// Consult the global flag after each iteration.
			if sp.flagged.Load() {
				if mi := sp.misspecInterval(); mi >= 0 && c >= mi {
					return nil
				}
			}
		}
		// Contribute this interval's state to its checkpoint.
		contrib := startTimer()
		cp := sp.checkpointFor(c)
		// The interval's last iteration (limit-1) is dealt to exactly one
		// worker; only its view of the statically-privatized ranges is the
		// interval's sequential final content.
		var proven []provenRange
		if len(sp.proven) > 0 && count > 0 && first+(count-1)*int64(w.stride) == limit-1 {
			proven = sp.proven
			for _, pr := range proven {
				w.local.ProvenRangeBytes += pr.size
			}
		}
		ok, scanned, missAddr := cp.addWorkerState(w.id, w.as, sp.redux, proven, w.io)
		w.simCheckpoint += scanned * SimCheckpointPerByte
		w.io = w.io[:0]
		w.resetShadow()
		contrib.stop(&w.local.CheckpointNS, rt.Cfg.Trace, obs.Event{Kind: obs.KContribute,
			Invocation: sp.inv, Worker: w.id, Iter: c, A: scanned})
		w.foldStats()
		if !ok {
			w.flag(base, "privacy violated (merge)", "", missAddr)
			return nil
		}
	}
	return nil
}
