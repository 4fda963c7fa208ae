package specrt

// Introspection: atomic Stats snapshots, misspeculation attribution
// (faulting address -> owning allocation site), and the privateer_*_total
// counter families a registry owner folds finished runtimes into.
// Everything here is off the speculative hot path: sites register on
// master-side allocation and attribution happens only when a
// misspeculation is flagged.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
)

// Snapshot returns an atomically loaded copy of the stats. Workers mutate
// every field with atomic adds while a region runs, so any reporting that
// may overlap execution must read through here rather than copying the
// struct.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Invocations:         atomic.LoadInt64(&s.Invocations),
		Checkpoints:         atomic.LoadInt64(&s.Checkpoints),
		Misspecs:            atomic.LoadInt64(&s.Misspecs),
		Recoveries:          atomic.LoadInt64(&s.Recoveries),
		SequentialFallbacks: atomic.LoadInt64(&s.SequentialFallbacks),
		PrivReadBytes:       atomic.LoadInt64(&s.PrivReadBytes),
		PrivWriteBytes:      atomic.LoadInt64(&s.PrivWriteBytes),
		PrivReadChecks:      atomic.LoadInt64(&s.PrivReadChecks),
		PrivWriteChecks:     atomic.LoadInt64(&s.PrivWriteChecks),
		SeparationChecks:    atomic.LoadInt64(&s.SeparationChecks),
		Predictions:         atomic.LoadInt64(&s.Predictions),
		DeferredIO:          atomic.LoadInt64(&s.DeferredIO),
		ProvenRangeBytes:    atomic.LoadInt64(&s.ProvenRangeBytes),
		SepAuditViolations:  atomic.LoadInt64(&s.SepAuditViolations),
		WarmSpawns:          atomic.LoadInt64(&s.WarmSpawns),
		SpawnNS:             atomic.LoadInt64(&s.SpawnNS),
		JoinNS:              atomic.LoadInt64(&s.JoinNS),
		CheckpointNS:        atomic.LoadInt64(&s.CheckpointNS),
		PrivReadNS:          atomic.LoadInt64(&s.PrivReadNS),
		PrivWriteNS:         atomic.LoadInt64(&s.PrivWriteNS),
		WorkerBusyNS:        atomic.LoadInt64(&s.WorkerBusyNS),
		RegionWallNS:        atomic.LoadInt64(&s.RegionWallNS),
	}
}

// misspecKey identifies one row of the misspeculation attribution table.
type misspecKey struct {
	region string
	cause  string
	site   string
	object string
}

// trackSite records [addr, addr+size) as owned by obj, an allocation site
// or a global. Called for master-side allocations and globals only; the
// name is formatted by siteFor, when a misspeculation is attributed.
func (rt *RT) trackSite(addr, size uint64, obj profiling.Object) {
	if addr == 0 || size == 0 {
		return
	}
	rt.siteMu.Lock()
	rt.siteMap.Insert(addr, addr+size, obj)
	rt.siteMu.Unlock()
}

// untrackSite drops the allocation owning addr, if tracked.
func (rt *RT) untrackSite(addr uint64) {
	rt.siteMu.Lock()
	rt.siteMap.Remove(addr)
	rt.siteMu.Unlock()
}

// siteFor attributes a faulting address to its owning allocation site, or
// to "<heap>:?" when the owner is unknown (worker-local allocations are
// not tracked).
func (rt *RT) siteFor(addr uint64) string {
	rt.siteMu.Lock()
	obj, ok := rt.siteMap.Lookup(addr)
	rt.siteMu.Unlock()
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
	rt.missMu.Lock()
	rt.missTable[k]++
	rt.missMu.Unlock()
}

// MisspecSiteRow is one aggregated misspeculation-attribution row: how
// often a given cause fired for a given owning object, and where.
type MisspecSiteRow struct {
	// Region is the parallel region function the misspeculation occurred in.
	Region string `json:"region"`
	// Cause is the violated speculative property.
	Cause string `json:"cause"`
	// Site is the IR instruction that detected the violation, if any.
	Site string `json:"site,omitempty"`
	// Object names the allocation site (or global) owning the faulting
	// address; "<heap>:?" when unknown, "" when the cause has no address.
	Object string `json:"object,omitempty"`
	// Count is the number of misspeculations attributed to this row.
	Count int64 `json:"count"`
}

// MisspecSites returns the aggregated misspeculation attribution table,
// most frequent first.
func (rt *RT) MisspecSites() []MisspecSiteRow {
	rt.missMu.Lock()
	rows := make([]MisspecSiteRow, 0, len(rt.missTable))
	for k, n := range rt.missTable {
		rows = append(rows, MisspecSiteRow{
			Region: k.region, Cause: k.cause, Site: k.site, Object: k.object, Count: n,
		})
	}
	rt.missMu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Site < b.Site
	})
	return rows
}

// FormatMisspecSites renders the attribution table for terminal output
// (the privateer -why-misspec report).
func FormatMisspecSites(rows []MisspecSiteRow) string {
	if len(rows) == 0 {
		return "no misspeculations recorded\n"
	}
	var sb strings.Builder
	sb.WriteString("Misspeculations by allocation site\n\n")
	header := []string{"count", "region", "cause", "object", "site"}
	widths := make([]int, len(header))
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Count), r.Region, r.Cause, r.Object, r.Site,
		})
	}
	for i, h := range header {
		widths[i] = len(h)
		for _, row := range cells {
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i := range header {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteString("\n")
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
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
	{"recoveries_total", "Sequential recovery episodes.",
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
