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
	"slices"
	"strings"

	"privateer/internal/ir"
	"privateer/internal/obs"
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

// misspecKey identifies one row of the misspeculation attribution table.
type misspecKey struct {
	region string
	cause  string
	site   string
	object string
}

// siteFor attributes a faulting address to the live object that owns it,
// named by its allocation site or global, or to "<heap>:?" when the owner
// is unknown (worker-local allocations are not tracked).
func (rt *RT) siteFor(addr uint64) string {
	rt.liveMu.Lock()
	obj, ok := rt.live.Lookup(addr)
	rt.liveMu.Unlock()
	if ok {
		return obj.String()
	}
	return ir.HeapOf(addr).String() + ":?"
}

// noteMisspec aggregates one detected misspeculation into the per-site
// table. addr is the faulting address (0 when the violation has no
// specific location, e.g. injected misspeculation).
func (rt *RT) noteMisspec(region, cause, site string, addr uint64) {
	obj := ""
	if addr != 0 {
		obj = rt.siteFor(addr)
	}
	k := misspecKey{region: region, cause: cause, site: site, object: obj}
	rt.reportMu.Lock()
	if rt.missTable == nil {
		rt.missTable = map[misspecKey]int64{}
	}
	rt.missTable[k]++
	rt.reportMu.Unlock()
}

// misspecSites renders the aggregated misspeculation attribution table,
// most frequent first, or nil when nothing misspeculated. The caller holds
// reportMu.
func (rt *RT) misspecSites() []obs.MisspecAttribution {
	if len(rt.missTable) == 0 {
		return nil
	}
	rows := make([]obs.MisspecAttribution, 0, len(rt.missTable))
	for k, n := range rt.missTable {
		rows = append(rows, obs.MisspecAttribution{
			Region: k.region, Cause: k.cause, Site: k.site, Object: k.object, Count: n,
		})
	}
	slices.SortFunc(rows, func(a, b obs.MisspecAttribution) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Region, b.Region),
			strings.Compare(a.Cause, b.Cause), strings.Compare(a.Object, b.Object),
			strings.Compare(a.Site, b.Site))
	})
	return rows
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
