package service

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"privateer/internal/obs"
	"privateer/internal/specrt"
)

// promValues parses the unlabeled series of a Prometheus text exposition.
func promValues(text string) map[string]int64 {
	vals := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // float-valued gauges are not runtime counters
		}
		vals[name] = n
	}
	return vals
}

// scrapeMetrics returns the body of GET /metrics on the server at base.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// TestRuntimeCountersSumAcrossJobs: the runtime's privateer_*_total
// families on a service's registry are counters over every job the service
// ran — after each job, scraped through the real /metrics handler, each
// family equals the sum of the finished jobs' Stats snapshots and none has
// moved backwards. (They used to be Set from whichever job's runtime was
// constructed last, so every job of a cheaper program dragged them down.)
func TestRuntimeCountersSumAcrossJobs(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1})
	scrape := func() map[string]int64 { return promValues(scrapeMetrics(t, base)) }

	// The expected totals: the same families on a registry of the test's
	// own, fed each job's final Stats as the job finishes.
	wantReg := obs.NewRegistry()
	want := specrt.NewStatCounters(wantReg)
	var checkpoints int64
	prev := map[string]int64{}
	// Two programs that speculate on a fleet of 2, of different cost.
	for i, prog := range []string{"052.alvinn/train", "dijkstra/alt", "052.alvinn/train", "dijkstra/alt"} {
		name, input, _ := strings.Cut(prog, "/")
		job, err := s.Submit("tenant-"+strconv.Itoa(i%2), name, input)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if v := s.View(job); v.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, prog, v.State, v.Error)
		}
		s.mu.Lock()
		st := job.rec.Stats
		s.mu.Unlock()
		if st.Invocations == 0 || st.Checkpoints == 0 {
			t.Fatalf("job %d (%s) recorded no runtime activity: %+v", i, prog, st)
		}
		want.Add(&st)
		checkpoints += st.Checkpoints

		var sb strings.Builder
		wantReg.WriteProm(&sb)
		wantVals := promValues(sb.String())
		if len(wantVals) != 10 {
			t.Fatalf("expected 10 runtime counter families, the table has %d", len(wantVals))
		}
		got := scrape()
		for fam, w := range wantVals {
			g, ok := got[fam]
			if !ok {
				t.Errorf("after job %d: /metrics misses %s", i, fam)
				continue
			}
			if g != w {
				t.Errorf("after job %d (%s): %s = %d, want the per-job sum %d", i, prog, fam, g, w)
			}
			if g < prev[fam] {
				t.Errorf("after job %d (%s): counter %s went backwards, %d -> %d", i, prog, fam, prev[fam], g)
			}
			prev[fam] = g
		}
		if got["privateer_checkpoints_total"] != checkpoints {
			t.Errorf("after job %d: privateer_checkpoints_total = %d, jobs built %d checkpoints",
				i, got["privateer_checkpoints_total"], checkpoints)
		}
	}
}

// familyRE matches one privateer_* metric family name.
var familyRE = regexp.MustCompile(`privateer_[a-z0-9_]+`)

// handbookFamilies returns the families named in the first column of the
// tables under "Every metric family on /metrics" in docs/OPERATIONS.md.
func handbookFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Every metric family on /metrics\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no \"Every metric family on /metrics\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	fams := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && cells[0] == "" {
			found := familyRE.FindAllString(cells[1], -1)
			for _, fam := range found {
				fams[fam] = true
			}
			// The last column is "Consumed by": a family nothing reads is
			// deleted, not listed.
			if by := strings.TrimSpace(cells[len(cells)-2]); len(found) > 0 && (by == "" || strings.HasPrefix(by, "none")) {
				t.Errorf("handbook row %v names no consumer (%q)", found, by)
			}
		}
	}
	return fams
}

// TestHandbookListsExactlyTheExportedFamilies: the handbook's metric tables
// are the export, both directions. A service that has run a misspeculating
// job (postmortem), failed one (drained while queued) and refused one
// (unknown program) has created every family it can; the privateer_*
// families its /metrics declares must be exactly the ones
// docs/OPERATIONS.md gives a row, so a family added without a row, a row
// left behind by a deletion, or a row with no consumer fails here.
func TestHandbookListsExactlyTheExportedFamilies(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1, MisspecRate: 0.5, Seed: 7})
	hold := make(chan struct{})
	s.holdRunner = hold
	first, err := s.Submit("t", "052.alvinn", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, first)
	queued, err := s.Submit("t", "052.alvinn", "train")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", "no-such-program", "train"); err == nil {
		t.Fatal("unknown program was admitted")
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for !s.Snapshot().Draining {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	<-drained
	if v := s.View(first); v.State != StateDone || v.Misspecs == 0 {
		t.Fatalf("drill job: state %s, %d misspecs (%s)", v.State, v.Misspecs, v.Error)
	}
	if v := s.View(queued); v.State != StateFailed {
		t.Fatalf("job queued behind the drain: state %s, want failed", v.State)
	}
	// A "# TYPE name kind" line declares one family whatever its kind, so
	// a histogram's _bucket/_sum/_count series fold into their family.
	exported := map[string]bool{}
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" &&
			strings.HasPrefix(f[2], "privateer_") {
			exported[f[2]] = true
		}
	}
	documented := handbookFamilies(t)
	var diffs []string
	for fam := range exported {
		if !documented[fam] {
			diffs = append(diffs, fam+": exported, no handbook row")
		}
	}
	for fam := range documented {
		if !exported[fam] {
			diffs = append(diffs, fam+": handbook row, not exported")
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(exported) == 0 {
		t.Error("/metrics declares no privateer_* family")
	}
}
