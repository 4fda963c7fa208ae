package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get issues one request against the server's handler and returns the
// response.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestServerEndpoints: /metrics must answer 200 with the right content
// type and body, /debug/pprof/ and every path the index lists must be
// served, and the removed /spec and /vars must 404 like any unknown path.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_serve_total", "h").Add(9)
	s := NewServer(reg)

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "t_serve_total 9") {
		t.Errorf("/metrics body missing series:\n%s", rec.Body.String())
	}

	// The single-run introspection endpoints are gone, not empty.
	for _, path := range []string{"/spec", "/vars", "/nonexistent"} {
		if rec := get(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, rec.Code)
		}
	}

	rec = get(t, s, "/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", rec.Code)
	}
	// Every path the index page prints must be served, so the index
	// cannot go stale.
	rec = get(t, s, "/")
	listed := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "/") {
			continue
		}
		listed++
		if rec := get(t, s, fields[0]); rec.Code == http.StatusNotFound {
			t.Errorf("index lists %s, which answers 404", fields[0])
		}
	}
	if listed == 0 {
		t.Errorf("index lists no endpoints:\n%s", rec.Body.String())
	}
}

// TestServerNilRegistry: /metrics must serve an (empty) document when the
// server was built without a registry.
func TestServerNilRegistry(t *testing.T) {
	s := NewServer(nil)
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("/metrics status %d with nil registry", rec.Code)
	}
}

// TestServerStartClose: Start must bind (port 0 picks a free port), serve
// over real TCP, and Close must stop it. Close without Start is a no-op.
func TestServerStartClose(t *testing.T) {
	if err := NewServer(nil).Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
	reg := NewRegistry()
	reg.Counter("t_tcp_total", "h").Inc()
	s := NewServer(reg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "t_tcp_total 1") {
		t.Errorf("served metrics missing series:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}
