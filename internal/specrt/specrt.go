package specrt

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/intervalmap"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// DefaultMaxRecoveries is the per-invocation budget of misspeculated spans.
// Each one advances the start or lowers the next span's bound to an earlier
// iteration (see invoke), so the budget is a policy, not a liveness
// requirement: past it the invocation's remainder abandons speculation (a
// sequential fallback, counted in Stats.SequentialFallbacks), trading lost
// parallelism for an end to churn. The value comfortably covers the
// paper's Figure 9 regime (up to ~20 expected misspeculations per
// invocation at the highest injected rate).
const DefaultMaxRecoveries = 32

// Config controls a speculative run.
type Config struct {
	// Workers is the number of worker processes.
	Workers int
	// CheckpointPeriod is the iteration count per checkpoint; 0 selects
	// automatically: about five checkpoints per invocation, capped at the
	// paper's 253-iteration metadata limit, until the run first recovers,
	// and from then on the period recoveryPeriod prices.
	CheckpointPeriod int64
	// MisspecRate injects artificial misspeculation at the given
	// per-iteration probability (Figure 9). Zero disables injection.
	MisspecRate float64
	// Seed makes injection deterministic.
	Seed uint64
	// Trace receives speculation-lifecycle events (nil disables tracing;
	// every emission site is then a single branch).
	Trace *obs.Tracer
	// SepAudit enables the runtime oracle for static separation proofs:
	// workers observe every load and store and flag (loudly, via
	// Stats.SepAuditViolations and Record.SepAudit) any access that
	// contradicts a statically-proven claim — a store into a proven
	// read-only object, or a read of a statically-privatized object's byte
	// before the iteration rewrote it. The read-only heap keeps its write
	// protection in this mode even when proofs would let it drop. A sound
	// prover never trips the oracle; it exists to catch unsound proofs
	// (see core.Ablation.PlantProofs) before they corrupt output silently.
	SepAudit bool
	// Program is the pre-decoded form of Mod (interp.SharedProgram) that
	// this runtime's master, workers and recovery interpreter execute;
	// Program.Mod must be the runtime's module. RT instances given the same
	// Program — the region service's jobs — share one decode cache and the
	// Pool's slots for it. Nil makes New decode Mod for this RT alone.
	Program *interp.Program
	// Pool is where each Run's master (with its recovery interpreter and
	// live-object registry), worker spawns and checkpoint buffers come from
	// and go back to; the service shares one per compiled program across the
	// runtimes given its Program, which a Pool requires (slots are keyed by
	// it). Nil gives each Run a pool of its own.
	Pool *WorkerPool
}

// RegionInfo bundles the compiler artifacts for one parallel region.
type RegionInfo struct {
	// Outline is the DOALL outline (region/iter functions).
	Outline *transform.Region
	// Assign is the heap assignment. Nil marks a region of the DOALL-only
	// build, whose judge accepts a loop on static analysis alone
	// (core.ParallelizeStatic): it is never speculated, and every
	// invocation runs in order (see runInOrder).
	Assign *classify.Assignment
	// Plan is the speculation plan.
	Plan *deps.Plan
	// TStats is the transformation summary.
	TStats *transform.Stats
}

// Stats aggregates runtime events across all invocations, feeding Table 3
// and Figure 8.
type Stats struct {
	// Invocations counts parallel-region entries.
	Invocations int64
	// Checkpoints counts checkpoint objects constructed.
	Checkpoints int64
	// Misspecs counts detected misspeculations (including injected).
	Misspecs int64
	// Recoveries counts recovery episodes: a misspeculated iteration re-run
	// on the master, with the prefix before it when that is too short to
	// speculate.
	Recoveries int64
	// SequentialFallbacks counts invocations abandoned to pure sequential
	// execution after the per-invocation recovery budget was spent.
	SequentialFallbacks int64
	// PrivReadBytes totals privacy-checked read volume (Table 3's "Priv R").
	PrivReadBytes int64
	// PrivWriteBytes totals privacy-checked write volume (Table 3's
	// "Priv W").
	PrivWriteBytes int64
	// PrivReadChecks counts dynamic privacy read checks.
	PrivReadChecks int64
	// PrivWriteChecks counts dynamic privacy write checks.
	PrivWriteChecks int64
	// SeparationChecks counts dynamic check_heap executions.
	SeparationChecks int64
	// Predictions counts dynamic value-prediction checks.
	Predictions int64
	// DeferredIO counts buffered output operations.
	DeferredIO int64
	// ProvenRangeBytes totals statically-privatized object bytes captured
	// for wholesale per-interval install (objects whose privacy marks the
	// prover discharged; compare PrivWriteBytes for the tracked kind).
	ProvenRangeBytes int64
	// SepAuditViolations counts accesses the SepAudit oracle observed
	// contradicting a static separation proof. Nonzero means an unsound
	// proof reached the runtime; see Record.SepAudit.
	SepAuditViolations int64
	// WarmSpawns counts worker spawns satisfied from a slot an earlier span,
	// or with a shared Config.Pool an earlier run, parked in the run's pool
	// (a recycled address space re-cloned in place plus a recycled
	// interpreter) rather than constructed cold.
	WarmSpawns int64
	// SpawnNS is wall-clock worker spawn time (nanoseconds, like every
	// timing field below).
	SpawnNS int64
	// JoinNS is the master-side critical path after workers quiesce: chain
	// validation (finishSync) plus install and commit (invoke), on the clean
	// and the misspeculation exit alike.
	JoinNS int64
	// ValidateNS, CommitNS and RecoveryNS time the master's chain
	// validations, its checkpoint installs with their output commits (both
	// inside JoinNS), and its recovery re-runs with sequential fallbacks.
	ValidateNS, CommitNS, RecoveryNS int64
	// CheckpointNS is wall-clock time workers spent merging state into
	// checkpoints.
	CheckpointNS int64
	// PrivReadNS is wall-clock time in privacy read checks, estimated from
	// one timed check in privTimeEvery.
	PrivReadNS int64
	// PrivWriteNS is the same estimate for privacy write checks.
	PrivWriteNS int64
	// WorkerBusyNS is total wall-clock worker execution time.
	WorkerBusyNS int64
	// RegionWallNS is wall-clock time inside parallel-region invocations.
	RegionWallNS int64
}

// addWorker adds the fields a worker counts (see worker.local) from o
// into s.
func (s *Stats) addWorker(o *Stats) {
	s.Misspecs += o.Misspecs
	s.DeferredIO += o.DeferredIO
	s.SeparationChecks += o.SeparationChecks
	s.Predictions += o.Predictions
	s.PrivReadChecks += o.PrivReadChecks
	s.PrivReadBytes += o.PrivReadBytes
	s.PrivReadNS += o.PrivReadNS
	s.PrivWriteChecks += o.PrivWriteChecks
	s.PrivWriteBytes += o.PrivWriteBytes
	s.PrivWriteNS += o.PrivWriteNS
	s.ProvenRangeBytes += o.ProvenRangeBytes
	s.CheckpointNS += o.CheckpointNS
	s.WorkerBusyNS += o.WorkerBusyNS
}

// Record is what an RT's runs counted. No counter is atomic: the master
// counts its own events, each worker counts into private totals that
// retire adds in once its span's fleet has joined (workers bump only the
// SepAudit count, under reportMu), and Run settles VM, Sites, SepAudit and
// Sim.SeqSteps on every exit. Every field adds up over the Runs of one RT;
// read it after Run returns.
type Record struct {
	// Stats counts runtime events (Table 3, Figure 8).
	Stats Stats
	// Sim is the simulated-time accounting (see sim.go).
	Sim SimStats
	// VM is the master space's page events with every worker space's
	// added in.
	VM vm.Stats
	// Sites is the misspeculation attribution table, most frequent first,
	// counted in place as misspeculations are attributed; nil when nothing
	// misspeculated.
	Sites []obs.MisspecAttribution
	// SepAudit holds the detail lines of the SepAudit violations, at most
	// 64 (Stats.SepAuditViolations has the full count); nil when none.
	SepAudit []string
}

// RT is the runtime: it executes a transformed module, intercepting
// parallel-region calls and running them speculatively in parallel.
type RT struct {
	// Cfg is the run configuration.
	Cfg Config
	// Mod is the transformed module.
	Mod *ir.Module
	// Record is the run record; rt.Stats and rt.Sim are its fields.
	Record

	// regions are the runtime's parallel regions, few enough that a scan
	// finds a callee's.
	regions []*RegionInfo

	// outMu guards out (the committed output stream) and each checkpoint's
	// committed flag transition: every writer goes through writeOut or
	// commitChain. Only the master thread writes — OnPrint outside regions,
	// commitChain and sequentialRange after the span's workers have joined —
	// and workers never do (their prints defer into worker-local buffers);
	// the mutex keeps that discipline checkable under -race.
	outMu sync.Mutex
	out   strings.Builder
	// prog is Cfg.Program, or New's decode of Mod when that is nil.
	prog *interp.Program
	// pool is the current Run's: Cfg.Pool, or one of the Run's own.
	pool *WorkerPool
	// slot is the current Run's master process, drawn from pool: master is
	// its interpreter.
	slot   *warmSlot
	master *interp.Interp
	// recov executes recovery and fallback iterations over the master's
	// space, and runs regions without an Assign in order: the slot's
	// recovery interpreter, armed with the run's hooks by the run's first
	// sequentialRange (nil until then).
	recov *interp.Interp

	// liveMu guards live, the master's live objects (globals, and the
	// allocations of the master and of recovery) keyed by address range:
	// what a span snapshots (see snapshot) and what a faulting address is
	// attributed to (see siteFor). Run restarts it from the globals in the
	// storage the master's slot kept, and gives the storage back when the
	// master is parked, so after Run it reads as the run's registry only
	// until the pool hands the slot on; worker-local allocations are
	// scratch state and are not tracked.
	liveMu sync.Mutex
	live   intervalmap.Map[profiling.Object]

	// reportMu guards what workers report: Record.Sites, the per-site
	// misspeculation table noteMisspec counts into, with siteOwners, the
	// owner of each of its rows, and the SepAudit violations
	// (Stats.SepAuditViolations, and sepViols, the bounded detail list Run
	// copies into Record.SepAudit). siteOwners is made at the first
	// misspeculation; a slice header in its place would take RT past the
	// 1,024-byte size class, 128 bytes more per job.
	reportMu   sync.Mutex
	siteOwners *[]missOwner
	sepViols   []string

	// The master thread's reused storage, one span at a time: the span,
	// its workers and snapshots (see speculate), the invocation's owed
	// iterations (see invoke) and sequentialRange's arguments.
	span                   spanState
	workers                []*worker
	reduxBuf               []reduxObj
	provenBuf, provenROBuf []provenRange
	owed                   []int64
	seqArgs                []uint64
	// What the run's recoveries price later spans' period from (Run resets
	// it): its retired (installed or re-run) iterations and recovery
	// episodes, and at the last recovery the steps per re-run iteration and
	// the episodes per retired iteration.
	retired, recovered, priceSteps int64
	priceRate                      float64
}

// New prepares a runtime for mod with the given regions.
func New(mod *ir.Module, cfg Config, regions ...*RegionInfo) *RT {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	rt := &RT{Cfg: cfg, Mod: mod, prog: cfg.Program, regions: regions}
	if rt.prog == nil {
		rt.prog = interp.SharedProgram(mod)
	}
	return rt
}

// region returns the region whose outlined function is fn, or nil.
func (rt *RT) region(fn *ir.Function) *RegionInfo {
	for _, r := range rt.regions {
		if r.Outline.RegionFn == fn {
			return r
		}
	}
	return nil
}

// Output returns everything the program printed, with deferred region
// output committed in order.
func (rt *RT) Output() string {
	rt.outMu.Lock()
	defer rt.outMu.Unlock()
	return rt.out.String()
}

// writeOut appends text to the committed output stream under outMu.
func (rt *RT) writeOut(text string) {
	rt.outMu.Lock()
	rt.out.WriteString(text)
	rt.outMu.Unlock()
}

// Master exposes the main process interpreter. After Run it has been
// parked in the run's pool: its memory, global layout and hooks are gone,
// and its AS.Stats reads as the last run's vm counts, the figures Run added
// into Record.VM, only until the pool hands the slot to another run (with
// Config.Pool nil, none does).
func (rt *RT) Master() *interp.Interp { return rt.master }

// onAlloc registers a master-side allocation as a live object: a span
// snapshots it (worker heaps initialize reduction objects to identity and
// merge them, and install statically-privatized ranges wholesale), and a
// faulting address inside it is attributed to its site.
func (rt *RT) onAlloc(fr *interp.Frame, in *ir.Instr, addr, size uint64) {
	if in != nil {
		rt.liveMu.Lock()
		rt.live.Insert(addr, addr+size, profiling.Object{Site: in})
		rt.liveMu.Unlock()
	}
}

// onFree drops a freed object from the registry: its address may be dead,
// or about to be reused by an unrelated allocation.
func (rt *RT) onFree(fr *interp.Frame, in *ir.Instr, addr uint64) {
	rt.liveMu.Lock()
	rt.live.Remove(addr)
	rt.liveMu.Unlock()
}

// newMaster returns the run's main process, its interpreter over an empty
// space counting from zero: a slot drawn from rt.pool (parked released and
// recycled, so LayOutGlobals lays out the same addresses NewAddressSpace
// would give), built fresh when the pool has none. The master's radix
// nodes, pages, allocator maps and frame slabs recycle through the slot
// exactly as a worker's do, and so do its recovery interpreter and
// registry storage.
func (rt *RT) newMaster() *warmSlot {
	if s := rt.pool.get(rt.prog); s != nil {
		s.as.Stats = vm.Stats{}
		return s
	}
	return newSlot(rt.prog, vm.NewAddressSpace())
}

// Run executes the program from its entry function over Config.Pool, or a
// pool of its own when that is nil. On every exit it settles the Record:
// the master's steps and vm counts (its span fleets' folded in) are added,
// and the detail tables rendered. The master is then parked, after its span
// fleets: each span parks its workers before returning, so no clone can
// reach the master's tree when the pool reclaims it.
func (rt *RT) Run(args ...uint64) (uint64, error) {
	if rt.prog.Mod != rt.Mod {
		return 0, fmt.Errorf("specrt: Config.Program decodes module %q, runtime executes %q",
			rt.prog.Mod.Name, rt.Mod.Name)
	}
	rt.pool = rt.Cfg.Pool
	switch {
	case rt.pool == nil:
		// The master and one fleet: every slot of the Run stays parked.
		rt.pool = NewWorkerPool(rt.Cfg.Workers + 1)
	case rt.Cfg.Program == nil:
		return 0, fmt.Errorf("specrt: Config.Pool needs Config.Program: the pool keys slots by "+
			"decoded program, and module %q is decoded for this runtime alone", rt.Mod.Name)
	}
	slot := rt.newMaster()
	master := slot.it
	rt.slot, rt.master, rt.recov = slot, master, nil
	rt.retired, rt.recovered, rt.priceSteps, rt.priceRate = 0, 0, 0, 0
	// The registry restarts in the slot's storage, from this run's globals
	// once they are laid out.
	rt.liveMu.Lock()
	rt.live = slot.live
	rt.live.Reset()
	rt.liveMu.Unlock()
	master.Hooks = interp.Hooks{
		OnPrint: func(in *ir.Instr, text string) bool {
			rt.writeOut(text)
			return true
		},
		OnAlloc: rt.onAlloc,
		OnFree:  rt.onFree,
		CallOverride: func(fr *interp.Frame, in *ir.Instr, callee *ir.Function, args []uint64) (uint64, bool, error) {
			ri := rt.region(callee)
			if ri == nil {
				return 0, false, nil
			}
			return 0, true, rt.invoke(ri, args)
		},
	}
	defer func() {
		rt.Sim.SeqSteps += master.Steps
		rt.VM.Add(master.AS.Stats)
		rt.reportMu.Lock()
		rt.SepAudit = append([]string(nil), rt.sepViols...)
		rt.reportMu.Unlock()
		rt.liveMu.Lock()
		slot.live = rt.live
		rt.liveMu.Unlock()
		rt.pool.put(rt.prog, slot)
	}()
	if err := master.LayOutGlobals(); err != nil {
		return 0, err
	}
	rt.liveMu.Lock()
	for _, name := range rt.Mod.GlobalNames() {
		g := rt.Mod.Globals[name]
		addr := master.GlobalAddr(g)
		rt.live.Insert(addr, addr+uint64(g.Size), profiling.Object{Global: g})
	}
	rt.liveMu.Unlock()
	return master.Run(args...)
}

// snapshot returns, for one region, the live objects a span acts on, each
// list in address order: the reduction objects ri reduces, with ri's
// operator and element size (two regions may reduce one object with
// different operators), the statically-privatized ranges (whose content
// installs wholesale per interval) and the proven read-only ranges (the
// SepAudit oracle watches them). An object's heap, read off its address,
// picks its list; an object ri neither reduces nor proves is left out, as
// the span neither identity-initializes, merges nor installs it. The lists
// live in buffers the next call reuses.
func (rt *RT) snapshot(ri *RegionInfo) (redux []reduxObj, priv, ro []provenRange) {
	a := ri.Assign
	redux, priv, ro = rt.reduxBuf[:0], rt.provenBuf[:0], rt.provenROBuf[:0]
	rt.liveMu.Lock()
	rt.live.Each(func(lo, hi uint64, obj profiling.Object) bool {
		size := int64(hi - lo)
		switch ir.HeapOf(lo) {
		case ir.HeapRedux:
			if k := a.ReduxOps[obj]; k != ir.ReduxNone {
				redux = append(redux, reduxObj{addr: lo, size: size, elemSize: a.ReduxSizes[obj], op: k})
			}
		case ir.HeapPrivate:
			if a.Sep.StaticallyPrivatized(obj) {
				priv = append(priv, provenRange{addr: lo, size: size})
			}
		case ir.HeapReadOnly:
			if a.Sep.ProvenFor(obj, ir.HeapReadOnly) {
				ro = append(ro, provenRange{addr: lo, size: size})
			}
		}
		return true
	})
	rt.liveMu.Unlock()
	rt.reduxBuf, rt.provenBuf, rt.provenROBuf = redux, priv, ro
	return redux, priv, ro
}

// roProtSkippable reports whether worker spaces for ri may skip write-
// protecting the read-only heap: the region has no unresolvable write
// and provably writes no object any region placed in the read-only heap,
// so the protection can never fire. SepAudit keeps the protection
// regardless — the oracle wants the trap as a second witness.
func (rt *RT) roProtSkippable(ri *RegionInfo) bool {
	sep := ri.Assign.Sep
	if rt.Cfg.SepAudit || sep == nil || sep.WritesUnknown {
		return false
	}
	for o := range sep.Writes {
		for _, rj := range rt.regions {
			if rj.Assign.HeapOf(o) == ir.HeapReadOnly {
				return false
			}
		}
	}
	return true
}

// noteSepViolation records one SepAudit oracle violation: counted in
// Stats, detailed (bounded) in sepViols. Workers call it, so both move
// under reportMu.
func (rt *RT) noteSepViolation(detail string) {
	rt.reportMu.Lock()
	rt.Stats.SepAuditViolations++
	if len(rt.sepViols) < 64 {
		rt.sepViols = append(rt.sepViols, detail)
	}
	rt.reportMu.Unlock()
}

// checkpointPeriod picks k for an invocation of total iterations: the
// configured period when positive, else the clean rule below.
func checkpointPeriod(configured, total int64) int64 {
	k := configured
	if k <= 0 {
		k = (total + 4) / 5 // about five checkpoints per invocation
	}
	return min(max(k, 1), MaxCheckpointPeriod)
}

// invoke runs one parallel region invocation: args are (lo, hi, live-ins).
// A span that misspeculates at iteration m installs its valid prefix [.., L)
// and leaves m owing a sequential run: the next span re-speculates [L, m),
// then m alone runs on the master. rt.owed keeps the iterations that still
// owe their run, in order, and the first bounds the next span, so a prefix
// that misspeculates again at m' < m owes m' first and m still runs later.
func (rt *RT) invoke(ri *RegionInfo, args []uint64) error {
	wall := startTimer()
	inv := rt.Stats.Invocations
	rt.Stats.Invocations++
	tr := rt.Cfg.Trace
	// Wall time accounts once, on every exit path: clean completion,
	// misspeculation-loop errors, and the sequential fallback alike.
	defer wall.stop(&rt.Stats.RegionWallNS, tr, obs.Event{Kind: obs.KRegionInvoke,
		Invocation: inv, Worker: -1, Iter: -1, A: int64(args[0]), B: int64(args[1])})
	lo, hi := int64(args[0]), int64(args[1])
	live := args[2:]
	if hi <= lo {
		return nil
	}
	if ri.Assign == nil {
		return rt.runInOrder(ri, lo, hi, live)
	}
	kClean := checkpointPeriod(rt.Cfg.CheckpointPeriod, hi-lo)

	// The recovery budget is per invocation and counts misspeculated spans:
	// a misspeculation-heavy region entry falls back to sequential execution
	// for its own remainder without poisoning later invocations.
	misspecs := 0
	rt.owed = rt.owed[:0]
	start := lo
	for start < hi {
		end := hi
		if len(rt.owed) > 0 {
			m := rt.owed[0]
			if m-start < int64(rt.Cfg.Workers) {
				// A prefix too short to share out runs with m on the master.
				if err := rt.recoverRange(ri, start, m+1, live, inv); err != nil {
					return err
				}
				rt.owed = rt.owed[:copy(rt.owed, rt.owed[1:])]
				start = m + 1
				continue
			}
			end = m
		}
		if misspecs >= DefaultMaxRecoveries {
			// Budget spent: the remainder runs sequentially, checks disabled.
			rt.Stats.SequentialFallbacks++
			fallback := startTimer()
			err := rt.sequentialRange(ri, start, hi, live, nil)
			fallback.stop(&rt.Stats.RecoveryNS, tr, obs.Event{Kind: obs.KSeqFallback,
				Invocation: inv, Worker: -1, Iter: -1, A: start, B: hi})
			rt.retired += hi - start
			return err
		}
		valid, misspecAt, err := rt.speculate(ri, live, start, end, rt.spanPeriod(kClean), inv)
		if err != nil {
			return err
		}
		rt.retired += valid - start
		start = valid
		if misspecAt >= 0 {
			misspecs++
			rt.owed = slices.Insert(rt.owed, 0, misspecAt)
		}
	}
	return nil
}

// speculate runs [start, end) as one span at period k and installs its
// valid prefix, the whole span on a clean finish. It returns where that
// prefix ends and the earliest misspeculated iteration (-1 when clean).
// The span reuses rt.span's storage, and its checkpoints go back to the
// free list on every exit.
func (rt *RT) speculate(ri *RegionInfo, live []uint64, start, end, k, inv int64) (valid, misspecAt int64, err error) {
	tr := rt.Cfg.Trace
	span := &rt.span
	*span = spanState{rt: rt, ri: ri, live: live, start: start, hi: end, k: k, inv: inv,
		misspecIter: -1, roProtSkip: rt.roProtSkippable(ri), checkpoints: span.checkpoints[:0]}
	span.redux, span.proven, span.provenRO = rt.snapshot(ri)
	defer span.recycle()
	tr.Instant(obs.Event{Kind: obs.KSpanStart,
		Invocation: inv, Worker: -1, Iter: -1, A: start, B: k})
	lastValid, misspecAt, err := span.run()
	rt.Stats.Checkpoints += int64(len(span.checkpoints))
	tr.Instant(obs.Event{Kind: obs.KSpanEnd,
		Invocation: inv, Worker: -1, Iter: -1, A: misspecAt, B: start})
	if err != nil || lastValid == nil {
		return start, misspecAt, err
	}
	// Install the valid prefix and commit its deferred output: the second
	// half of the join, timed into JoinNS on both exits.
	join := startTimer()
	err = rt.installCheckpoint(lastValid, span.redux, span.proven, inv)
	join.stop(&rt.Stats.JoinNS, nil, obs.Event{})
	return lastValid.limit, misspecAt, err
}

// recoverRange runs [from, to) on the master, one recovery episode: a
// misspeculated iteration, with the prefix before it when that is too short
// to speculate. The iteration's steps and the run's recovery rate so far
// then price the period of every later span of the run (spanPeriod).
func (rt *RT) recoverRange(ri *RegionInfo, from, to int64, live []uint64, inv int64) error {
	tr := rt.Cfg.Trace
	rt.Stats.Recoveries++
	tr.Instant(obs.Event{Kind: obs.KPhase,
		Invocation: inv, Worker: -1, Iter: -1, Cause: "recover"})
	t, before := startTimer(), rt.Sim.RecoverySteps
	if err := rt.sequentialRange(ri, from, to, live, nil); err != nil {
		return err
	}
	t.stop(&rt.Stats.RecoveryNS, tr, obs.Event{Kind: obs.KRecovery,
		Invocation: inv, Worker: -1, Iter: -1, A: from, B: to})
	rt.retired += to - from
	rt.recovered++
	rt.priceSteps = (rt.Sim.RecoverySteps - before) / (to - from)
	rt.priceRate = float64(rt.recovered) / float64(rt.retired)
	return nil
}

// spanPeriod is a span's checkpoint period in an invocation whose clean
// period is kClean: kClean until the run has recovered, then the price of
// the last recovery. A configured Config.CheckpointPeriod is never repriced.
func (rt *RT) spanPeriod(kClean int64) int64 {
	if rt.Cfg.CheckpointPeriod > 0 || rt.recovered == 0 {
		return kClean
	}
	return recoveryPeriod(rt.Cfg.Workers, kClean, rt.priceSteps, rt.priceRate)
}

// installCheckpoint applies cp's chain to the master state, commits the
// chain's deferred output, and accounts the simulated cost of both.
func (rt *RT) installCheckpoint(cp *checkpoint, redux []reduxObj, proven []provenRange, inv int64) error {
	t := startTimer()
	bytes, err := cp.installInto(rt.master.AS, redux, proven)
	if err != nil {
		return err
	}
	t.stop(&rt.Stats.CommitNS, rt.Cfg.Trace, obs.Event{Kind: obs.KInstall,
		Invocation: inv, Worker: -1, Iter: cp.id, A: bytes})
	t = startTimer()
	committed := rt.commitChain(cp)
	t.stop(&rt.Stats.CommitNS, rt.Cfg.Trace, obs.Event{Kind: obs.KCommit,
		Invocation: inv, Worker: -1, Iter: cp.id, A: committed})
	cost := bytes*SimInstallPerByte + committed*SimCommitPerIO
	rt.Sim.RegionTime += cost
	rt.Sim.CheckpointCost += cost
	return nil
}

// commitChain commits every uncommitted checkpoint up to cp, oldest first:
// each one's deferred output is emitted in iteration order and the
// checkpoint marked committed, under outMu. It returns the number of
// output operations committed.
func (rt *RT) commitChain(cp *checkpoint) int64 {
	if cp.committed {
		return 0
	}
	first := cp
	for first.prev != nil && !first.prev.committed {
		first = first.prev
	}
	var committed int64
	for c := first; ; c = c.next {
		recs := c.sortedIO()
		rt.outMu.Lock()
		for _, rec := range recs {
			rt.out.WriteString(rec.text)
		}
		c.committed = true
		rt.outMu.Unlock()
		committed += int64(len(recs))
		if c == cp {
			break
		}
	}
	return committed
}

// runInOrder runs one invocation of a region without an Assign: static
// analysis proved it DOALL (deps.StaticBlockers admits no carried memory or
// scalar dependence, no live-out and no I/O), so [lo, hi) runs in program
// order on the master, with no snapshot, span or check, and leaves the
// memory and output of every schedule. The invocation is priced as if its
// iterations were dealt cyclically to a fleet of W′ = min(Workers, hi−lo)
// workers, iteration i to worker (i−lo) mod W′: W′ spawns and joins plus the
// busiest worker's steps.
func (rt *RT) runInOrder(ri *RegionInfo, lo, hi int64, live []uint64) error {
	shares := make([]int64, min(int64(rt.Cfg.Workers), hi-lo))
	if err := rt.sequentialRange(ri, lo, hi, live, shares); err != nil {
		return err
	}
	rt.Sim.RegionTime += int64(len(shares))*(SimSpawnPerWorker+SimJoinPerWorker) + slices.Max(shares)
	return nil
}

// sequentialRange executes iterations [from, to) non-speculatively on the
// master state with every check disabled — the recovery path, the fallback
// mode and runInOrder. With shares nil the steps count as recovery
// (Sim.RecoverySteps); otherwise iteration i's steps are added to
// shares[(i−from) mod len(shares)] and the caller prices them.
func (rt *RT) sequentialRange(ri *RegionInfo, from, to int64, live []uint64, shares []int64) error {
	if from >= to {
		return nil
	}
	it := rt.recov
	if it == nil {
		it = rt.slot.recov
		if it == nil {
			it = interp.NewShared(rt.prog, rt.master.AS)
			rt.slot.recov = it
		}
		it.AdoptLayout(rt.master.GlobalLayout())
		// Recovery mutates master state directly, so the registry must
		// track the allocations and frees it performs: the master's hooks,
		// but regions run in line.
		it.Hooks = rt.master.Hooks
		it.Hooks.CallOverride = nil
		// No Speculator: the privacy marks are skipped. check_heap,
		// predict and misspec would check, so checks go off.
		it.ChecksOff = true
		rt.recov = it
	}
	it.Steps = 0
	rt.seqArgs = append(append(rt.seqArgs[:0], 0), live...)
	for i := from; i < to; i++ {
		rt.seqArgs[0] = uint64(i)
		before := it.Steps
		if _, err := it.Call(ri.Outline.IterFn, rt.seqArgs...); err != nil {
			return fmt.Errorf("sequential run of iteration %d: %w", i, err)
		}
		if shares != nil {
			shares[(i-from)%int64(len(shares))] += it.Steps - before
		}
	}
	if shares == nil {
		rt.Sim.RecoverySteps += it.Steps
	}
	return nil
}

// inject reports whether iteration i should misspeculate artificially.
func (rt *RT) inject(i int64) bool {
	if rt.Cfg.MisspecRate <= 0 {
		return false
	}
	// splitmix64 over (seed, i) for a deterministic, uniform draw.
	x := rt.Cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < rt.Cfg.MisspecRate
}
