package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Server is the introspection HTTP server. It exposes the metrics
// registry in Prometheus text form at /metrics, liveness and readiness
// probes at /healthz and /readyz, and the standard Go profiling handlers
// under /debug/pprof/. It uses only the standard library and its own mux,
// so it never collides with http.DefaultServeMux.
type Server struct {
	reg   *Registry
	ready atomic.Value // func() bool
	mux   *http.ServeMux
	srv   *http.Server
	ln    net.Listener
}

// NewServer returns a server exposing reg. reg may be nil (/metrics then
// serves an empty document).
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetReady installs the readiness probe backing /readyz. The function is
// called per request and must be safe for concurrent use; returning false
// turns /readyz into a 503 so load balancers stop routing (the region
// service flips it during drain). With no probe installed the server always
// reports ready.
func (s *Server) SetReady(fn func() bool) {
	s.ready.Store(fn)
}

// Handle mounts handler at pattern on the server's private mux, alongside
// the built-in introspection endpoints. The region service uses it to
// expose its submit/poll API through the same listener. Patterns follow
// http.ServeMux semantics; registering a pattern twice panics, as it does
// on any ServeMux. Call before Start.
func (s *Server) Handle(pattern string, handler http.Handler) {
	s.mux.Handle(pattern, handler)
}

// Handler returns the server's mux, for embedding or tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and server. Safe if Start never ran.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleIndex lists the available endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "privateer introspection endpoints:")
	fmt.Fprintln(w, "  /metrics      Prometheus text metrics")
	fmt.Fprintln(w, "  /healthz      liveness probe (always 200 while serving)")
	fmt.Fprintln(w, "  /readyz       readiness probe (503 while draining)")
	fmt.Fprintln(w, "  /debug/pprof/ Go runtime profiles")
}

// handleHealthz is the liveness probe: if the server can answer at all, it
// is live.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 while the installed probe (if
// any) reports ready, 503 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fn, _ := s.ready.Load().(func() bool)
	if fn != nil && !fn() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteProm(w)
}
