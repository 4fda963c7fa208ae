package specrt

// Introspection: misspeculation attribution (faulting address -> owning
// allocation site, rendered into Record.Sites), and the privateer_*_total
// counter families a registry owner folds finished runtimes' Stats into.
// Everything here is off the speculative hot path: attribution reads the
// live-object registry (RT.live) only when a misspeculation is flagged.

import (
	"cmp"
	"fmt"
	"maps"
	"strings"

	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
)

// Snapshot returns a copy of the stats. Its one caller is the repository
// benchmark (benchmark/region.go), until that reads Record too; every field
// is final once Run has returned.
func (s *Stats) Snapshot() Stats { return *s }

// PhaseNS is the run's time by job lifecycle phase (obs.PhaseNames), the
// phases with no time left out. The queued phase is not the runtime's: a
// job's wait happens before Run.
func (s *Stats) PhaseNS() map[string]int64 {
	m := map[string]int64{
		obs.PhaseSpawn: s.SpawnNS, obs.PhaseRun: s.WorkerBusyNS,
		obs.PhaseValidate: s.ValidateNS, obs.PhaseMerge: s.CheckpointNS,
		obs.PhaseCommit: s.CommitNS, obs.PhaseRecovery: s.RecoveryNS,
	}
	maps.DeleteFunc(m, func(_ string, ns int64) bool { return ns == 0 })
	return m
}

// missOwner identifies the object column of an attribution row before it is
// rendered: the live object owning the faulting address, or that address's
// heap when no tracked object owns it. The zero value is a misspeculation
// without an address.
type missOwner struct {
	obj  profiling.Object
	heap ir.HeapKind
	addr bool
}

// String names the owner as Record.Sites' Object column does: the object's
// allocation site or global, "<heap>:?" when the owner is unknown
// (worker-local allocations are not tracked), "" without an address.
func (o missOwner) String() string {
	switch {
	case !o.addr:
		return ""
	case !o.obj.IsZero():
		return o.obj.String()
	}
	return o.heap.String() + ":?"
}

// ownerOf attributes a faulting address to the live object that owns it.
func (rt *RT) ownerOf(addr uint64) missOwner {
	rt.liveMu.Lock()
	obj, ok := rt.live.Lookup(addr)
	rt.liveMu.Unlock()
	if ok {
		return missOwner{obj: obj, addr: true}
	}
	return missOwner{heap: ir.HeapOf(addr), addr: true}
}

// noteMisspec counts one detected misspeculation into its row of
// Record.Sites, which stays ordered most frequent first. addr is the
// faulting address (0 when the violation has no specific location, e.g.
// injected misspeculation). A row's owner is rendered once, when the row is
// added; (*siteOwners)[i] is the owner of row i.
func (rt *RT) noteMisspec(region, cause, site string, addr uint64) {
	var owner missOwner
	if addr != 0 {
		owner = rt.ownerOf(addr)
	}
	rt.reportMu.Lock()
	defer rt.reportMu.Unlock()
	if rt.siteOwners == nil {
		rt.siteOwners = new([]missOwner)
	}
	owners := rt.siteOwners
	i := len(rt.Sites)
	for j, r := range rt.Sites {
		if r.Region == region && r.Cause == cause && r.Site == site && (*owners)[j] == owner {
			i = j
			break
		}
	}
	if i == len(rt.Sites) {
		rt.Sites = append(rt.Sites, obs.MisspecAttribution{Region: region, Cause: cause, Site: site, Object: owner.String()})
		*owners = append(*owners, owner)
	}
	rt.Sites[i].Count++
	// Only row i moved, and only up: one pass of insertion sort restores
	// the order.
	for o := *owners; i > 0 && siteOrder(rt.Sites[i], rt.Sites[i-1]) < 0; i-- {
		rt.Sites[i], rt.Sites[i-1] = rt.Sites[i-1], rt.Sites[i]
		o[i], o[i-1] = o[i-1], o[i]
	}
}

// siteOrder orders attribution rows most frequent first, then by region,
// cause, object and site.
func siteOrder(a, b obs.MisspecAttribution) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Region, b.Region),
		strings.Compare(a.Cause, b.Cause), strings.Compare(a.Object, b.Object),
		strings.Compare(a.Site, b.Site))
}

// FormatMisspecSites renders the attribution table for terminal output
// (the privateer -why-misspec report).
func FormatMisspecSites(rows []obs.MisspecAttribution) string {
	if len(rows) == 0 {
		return "no misspeculations recorded\n"
	}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Count), r.Region, r.Cause, r.Object, r.Site,
		})
	}
	return "Misspeculations by allocation site\n\n" +
		obs.Table([]string{"count", "region", "cause", "object", "site"}, cells)
}

// statFamilies names the privateer_*_total counter family of each Stats
// field the region service exports; it folds every finished job in.
var statFamilies = []struct {
	name, help string
	get        func(*Stats) int64
}{
	{"checkpoints_total", "Checkpoint objects constructed.",
		func(s *Stats) int64 { return s.Checkpoints }},
	{"misspeculations_total", "Detected misspeculations, including injected.",
		func(s *Stats) int64 { return s.Misspecs }},
	{"recoveries_total", "Misspeculated iterations re-run on the master.",
		func(s *Stats) int64 { return s.Recoveries }},
	{"sequential_fallbacks_total", "Invocations abandoned to sequential execution.",
		func(s *Stats) int64 { return s.SequentialFallbacks }},
	{"sep_audit_violations_total", "Static separation claims contradicted by the SepAudit oracle.",
		func(s *Stats) int64 { return s.SepAuditViolations }},
	{"warm_spawns_total", "Worker spawns satisfied from the warmed pool.",
		func(s *Stats) int64 { return s.WarmSpawns }},
	{"spawn_ns_total", "Wall-clock worker spawn time.",
		func(s *Stats) int64 { return s.SpawnNS }},
	{"join_ns_total", "Master-side validate/install/commit critical path.",
		func(s *Stats) int64 { return s.JoinNS }},
	{"checkpoint_ns_total", "Wall-clock worker checkpoint-merge time.",
		func(s *Stats) int64 { return s.CheckpointNS }},
	{"worker_busy_ns_total", "Total wall-clock worker execution time.",
		func(s *Stats) int64 { return s.WorkerBusyNS }},
}

// StatCounters holds one registry's privateer_*_total counter handles,
// resolved once. On a nil registry every handle is inert.
type StatCounters []obs.Counter

// NewStatCounters registers the Stats counter families on reg.
func NewStatCounters(reg *obs.Registry) StatCounters {
	cs := make(StatCounters, len(statFamilies))
	for i, f := range statFamilies {
		cs[i] = reg.Counter("privateer_"+f.name, f.help)
	}
	return cs
}

// Add folds one finished runtime's totals into the counters, so the
// families sum over every runtime the registry's owner ran.
func (cs StatCounters) Add(st Stats) {
	for i, f := range statFamilies {
		cs[i].Add(f.get(&st))
	}
}
