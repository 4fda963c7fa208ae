package service

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

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

// TestRuntimeCountersSumAcrossJobs: the runtime's privateer_*_total
// families on a service's registry are counters over every job the service
// ran — after each job, scraped through the real /metrics handler, each
// family equals the sum of the finished jobs' Stats snapshots and none has
// moved backwards. (They used to be Set from whichever job's runtime was
// constructed last, so every job of a cheaper program dragged them down.)
func TestRuntimeCountersSumAcrossJobs(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1})
	scrape := func() map[string]int64 {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read /metrics: %v", err)
		}
		return promValues(string(body))
	}

	// The expected totals: the same families on a registry of the test's
	// own, fed each job's final Stats as the job finishes.
	wantReg := obs.NewRegistry()
	want := specrt.NewStatCounters(wantReg)
	var invocations int64
	prev := map[string]int64{}
	for i, prog := range []string{"dijkstra", "enc-md5", "dijkstra", "enc-md5"} {
		job, err := s.Submit("tenant-"+strconv.Itoa(i%2), prog, "train")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if v := s.View(job); v.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, prog, v.State, v.Error)
		}
		s.mu.Lock()
		st := job.stats
		s.mu.Unlock()
		if st.Invocations == 0 || st.Checkpoints == 0 {
			t.Fatalf("job %d (%s) recorded no runtime activity: %+v", i, prog, st)
		}
		want.Add(st)
		invocations += st.Invocations

		var sb strings.Builder
		wantReg.WriteProm(&sb)
		wantVals := promValues(sb.String())
		if len(wantVals) != 20 {
			t.Fatalf("expected 20 runtime counter families, the table has %d", len(wantVals))
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
		if got["privateer_invocations_total"] != invocations {
			t.Errorf("after job %d: privateer_invocations_total = %d, jobs ran %d invocations",
				i, got["privateer_invocations_total"], invocations)
		}
	}
}
