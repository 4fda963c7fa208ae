package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"privateer/internal/obs"
)

// startAPI mounts a fresh service on an obs.Server bound to a free port and
// returns the service plus the base URL.
func startAPI(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := New(cfg)
	srv := obs.NewServer(reg)
	s.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		s.Drain()
		_ = srv.Close()
	})
	return s, "http://" + addr
}

// submitHTTP POSTs a SubmitRequest and decodes the JSON reply.
func submitHTTP(t *testing.T, base string, req SubmitRequest) (int, JobView, errorReply) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /submit: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	var view JobView
	var fail errorReply
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &view); err != nil {
			t.Fatalf("decode job view: %v (%s)", err, buf.String())
		}
	} else if err := json.Unmarshal(buf.Bytes(), &fail); err != nil {
		t.Fatalf("decode error reply: %v (%s)", err, buf.String())
	}
	return resp.StatusCode, view, fail
}

// TestHTTPSubmitPoll drives a job through the full HTTP lifecycle:
// 202 on submit, poll until done, and a sane /service snapshot.
func TestHTTPSubmitPoll(t *testing.T) {
	_, base := startAPI(t, Config{Workers: 2, Concurrency: 2, QueueDepth: 8})

	code, view, _ := submitHTTP(t, base, SubmitRequest{Tenant: "ops", Prog: "052.alvinn", Input: "train"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if view.ID == "" || view.Tenant != "ops" {
		t.Fatalf("submit view: %+v", view)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/poll?id=%s", base, view.ID))
		if err != nil {
			t.Fatalf("GET /poll: %v", err)
		}
		var polled JobView
		err = json.NewDecoder(resp.Body).Decode(&polled)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode poll: %v", err)
		}
		if polled.State == StateDone {
			if polled.Output == "" {
				t.Fatal("done job has empty output")
			}
			// The per-job trace rides along in the poll view.
			if polled.TraceID != polled.ID {
				t.Errorf("trace_id %q, want the job id %q", polled.TraceID, polled.ID)
			}
			for _, ph := range requiredPhases {
				if _, ok := polled.PhaseNS[ph]; !ok {
					t.Errorf("phase_ns misses %s: %v", ph, polled.PhaseNS)
				}
			}
			break
		}
		if polled.State == StateFailed {
			t.Fatalf("job failed: %s", polled.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", polled.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/service")
	if err != nil {
		t.Fatalf("GET /service: %v", err)
	}
	var sn Snapshot
	err = json.NewDecoder(resp.Body).Decode(&sn)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if sn.Jobs != 1 || sn.Draining {
		t.Fatalf("snapshot jobs = %d, draining = %v; want 1, false", sn.Jobs, sn.Draining)
	}
	if tc, ok := sn.Tenants["ops"]; !ok || tc.Completed != 1 {
		t.Fatalf("snapshot tenants: %+v", sn.Tenants)
	}
}

// TestHTTPErrors covers the API's failure statuses: wrong method, bad JSON,
// unknown program, missing/unknown poll IDs, and 503 once draining.
func TestHTTPErrors(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1, QueueDepth: 4})

	if resp, err := http.Get(base + "/submit"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /submit: %d", resp.StatusCode)
		}
	}

	if resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader([]byte("{"))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad JSON: %d", resp.StatusCode)
		}
	}

	if code, _, fail := submitHTTP(t, base, SubmitRequest{Prog: "no-such"}); code != http.StatusBadRequest || fail.Error == "" {
		t.Fatalf("unknown program: %d %+v", code, fail)
	}

	for _, url := range []string{base + "/poll", base + "/poll?id=j999999"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d", url, resp.StatusCode)
		}
	}

	s.Drain()
	if code, _, _ := submitHTTP(t, base, SubmitRequest{Prog: "dijkstra", Input: "train"}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d", code)
	}
}

// TestHTTPBackpressure asserts 429 + Retry-After for queue-full rejections.
func TestHTTPBackpressure(t *testing.T) {
	s, base := startAPI(t, Config{Workers: 2, Concurrency: 1, QueueDepth: 1})
	hold := make(chan struct{})
	s.holdRunner = hold
	defer close(hold)

	code, view, _ := submitHTTP(t, base, SubmitRequest{Tenant: "a", Prog: "dijkstra", Input: "train"})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitRunning(t, s, mustJob(t, s, view.ID))
	if code, _, _ := submitHTTP(t, base, SubmitRequest{Tenant: "b", Prog: "dijkstra", Input: "train"}); code != http.StatusAccepted {
		t.Fatalf("queued submit: %d", code)
	}
	body, _ := json.Marshal(SubmitRequest{Tenant: "c", Prog: "dijkstra", Input: "train"})
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// mustJob resolves an ID the HTTP API returned back to the job handle.
func mustJob(t *testing.T, s *Service, id string) *Job {
	t.Helper()
	j, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
