// Package status serves the fleet observability surfaces over HTTP: the
// metrics registry in Prometheus text format at /metrics, a liveness probe
// at /healthz, the live-progress JSON at /progress, and net/http/pprof
// under /debug/pprof/.  It lives outside internal/obs proper because a
// server needs goroutines and the wall clock, which dsre-lint's
// determinism analyzer bans from the audited obs package.
package status

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// healthView is the /healthz JSON document: liveness plus the version
// identity operators use to spot skewed processes.  It mirrors the
// dsre-serve-health/v1 shape served by the daemon.
type healthView struct {
	Schema      string `json:"schema"`
	Status      string `json:"status"`
	SimVersion  string `json:"sim_version"`
	GoVersion   string `json:"go_version"`
	StartTimeMS int64  `json:"start_time_ms"`
	UptimeMS    int64  `json:"uptime_ms"`
}

// Server is a live status listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr immediately — a bad address fails the caller, not a
// background goroutine — and serves o's surfaces until Close.
func Serve(addr string, o *obs.SweepObs) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(o), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		// http.Serve returns ErrServerClosed-ish errors on Close; the
		// listener owns the lifecycle, so there is nothing to report.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (resolves ":0" for tests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the status mux over o: its registry at /metrics, its live
// progress at /progress, and /healthz reporting the moment the handler was
// built as the start time (exported so tests can drive it without a
// socket).
func Handler(o *obs.SweepObs) http.Handler {
	mux := http.NewServeMux()
	start := time.Now()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(healthView{
			Schema: "dsre-serve-health/v1", Status: "ok",
			SimVersion: sim.Version, GoVersion: runtime.Version(),
			StartTimeMS: start.UnixMilli(),
			UptimeMS:    time.Since(start).Milliseconds(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Reg.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(o.Progress(time.Now()))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dsre status endpoints:")
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
		fmt.Fprintln(w, "  /healthz      liveness probe")
		fmt.Fprintln(w, "  /progress     live sweep progress (dsre-progress/v1)")
		fmt.Fprintln(w, "  /debug/pprof  Go runtime profiles")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
