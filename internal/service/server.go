package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"zenspec/internal/harness"
)

// Server is the zenspecd HTTP front end: the versioned /v1 JSON job API,
// the daemon's Prometheus scrape and the host's own profiler.
//
//	GET  /v1/meta                         API version, build, experiment list
//	POST /v1/jobs                         submit a JobSpec, returns {"id": "job-N"}
//	GET  /v1/jobs                         list all jobs
//	GET  /v1/jobs/{id}                    one job's status
//	GET  /v1/jobs/{id}/watch              NDJSON stream of status snapshots until terminal
//	GET  /v1/jobs/{id}/report             merged SuiteReport (?stable=1 for StableJSON,
//	                                      ?text=1 for the terminal rendering)
//	GET  /v1/jobs/{id}/profile            merged simulated-machine profile, pprof protobuf
//	GET  /v1/jobs/{id}/trace              stitched daemon+worker Perfetto trace
//	                                      (Chrome trace-event JSON; 404 for a job
//	                                      journaled without a trace ID)
//	POST /v1/leases                       claim a shard lease ({"worker", "wait_ms"};
//	                                      204 when nothing is pending)
//	POST /v1/leases/{token}/heartbeat     keep a lease alive ({"done", "total"})
//	POST /v1/leases/{token}/complete      hand back a shard ({"partial", "error", "overrun"})
//	GET  /v1/healthz                      liveness (200 while the process serves)
//	GET  /v1/readyz                       readiness (503 once draining)
//	GET  /metrics                         the zenspec_service_* registry, Prometheus text
//	GET  /debug/pprof/                    the Go runtime's profiler, for the daemon process
//
// Errors come back as {"error": "...", "code": "..."} JSON bodies; Client
// maps the code to the package's typed sentinels.
type Server struct {
	d   *Daemon
	srv *http.Server
}

// NewServer wraps a daemon.
func NewServer(d *Daemon) *Server { return &Server{d: d} }

// Handler builds the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.d.Ready() {
			// A draining daemon answering probes is an event worth seeing:
			// without it, an operator only infers the drain from re-leases.
			s.d.Obs().Metrics().Inc("readyz_draining_total", 1)
			s.d.log.Warn("readiness probe while draining", "remote", r.RemoteAddr)
			writeError(w, http.StatusServiceUnavailable, "draining", "daemon is draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("POST /v1/leases", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{token}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{token}/complete", s.handleComplete)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.d.Obs().Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves in the background.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains the HTTP server, then the daemon (in-flight shards finish
// and the journal is checkpointed), both bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.srv != nil {
		httpErr = s.srv.Shutdown(ctx)
	}
	if err := s.d.Shutdown(ctx); err != nil {
		return err
	}
	return httpErr
}

// apiError is the wire shape of every error response. Code is machine-
// readable; Client maps it back to the package sentinels so errors.Is works
// across the wire.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrJobNotFound):
		status, code = http.StatusNotFound, "job_not_found"
	case errors.Is(err, ErrLeaseNotFound):
		status, code = http.StatusNotFound, "lease_not_found"
	case errors.Is(err, harness.ErrUnknownExperiment):
		status, code = http.StatusNotFound, "unknown_experiment"
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	}
	writeError(w, status, code, err.Error())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.Meta())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad spec: "+err.Error())
		return
	}
	id, err := s.d.Submit(spec)
	if err != nil {
		if errors.Is(err, harness.ErrUnknownExperiment) {
			writeError(w, http.StatusBadRequest, "unknown_experiment", err.Error())
			return
		}
		s.fail(w, err)
		return
	}
	writeJSON(w, struct {
		ID string `json:"id"`
	}{id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.d.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.d.Status(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, st)
}

// handleLease claims the next pending shard for a remote worker. The server
// caps the long-poll window well below typical client timeouts so a drain
// never wedges behind parked lease requests; an empty claim is 204, not an
// error — the worker just polls again.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
		WaitMS int64  `json:"wait_ms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad lease request: "+err.Error())
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if max := 5 * time.Second; wait > max {
		wait = max
	}
	l, err := s.d.Lease(req.Worker, wait)
	if err != nil {
		s.fail(w, err)
		return
	}
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, l)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad heartbeat: "+err.Error())
		return
	}
	if err := s.d.Heartbeat(r.PathValue("token"), req.Done, req.Total); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req Completion
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad completion: "+err.Error())
		return
	}
	if err := s.d.Complete(r.PathValue("token"), req); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTrace serves the job's stitched daemon+worker Perfetto trace. The
// route is /v1-only, like the lease surface.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	b, err := s.d.TracePerfetto(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, ErrJobNotFound) {
			s.fail(w, err)
			return
		}
		writeError(w, http.StatusNotFound, "no_trace", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleWatch streams NDJSON status snapshots — one line per state change,
// plus an initial one — until the job reaches a terminal state or the client
// goes away.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.d.Status(id)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.d.Obs().Metrics().Inc("watch_requests_total", 1)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var last []byte
	emitted := 0
	defer func() {
		// Fan-out: how many snapshot lines this stream pushed before ending.
		s.d.Obs().Metrics().Observe("watch_fanout", float64(emitted))
	}()
	emit := func(st JobStatus) bool {
		line, _ := json.Marshal(st)
		if string(line) == string(last) {
			return true
		}
		last = line
		if err := enc.Encode(st); err != nil {
			return false
		}
		emitted++
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(st) {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for !st.Terminal() {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		st, err = s.d.Status(id)
		if err != nil || !emit(st) {
			return
		}
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.d.Report(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	switch {
	case r.URL.Query().Get("stable") != "":
		rep = rep.Stable()
	case r.URL.Query().Get("text") != "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// WriteJSON refuses an unencodable report before its first byte, so the
	// typed error can still go out. Any other error is a failed write: the
	// client is gone and there is no one left to tell.
	if err := rep.WriteJSON(w); errors.As(err, new(*json.UnsupportedValueError)) {
		s.fail(w, err)
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	rep, err := s.d.Report(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	snap := rep.Profile()
	if snap == nil {
		writeError(w, http.StatusNotFound, "bad_request", "job has no profile (submit with \"profile\": true)")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="zenspec-job.pb.gz"`)
	snap.WritePprof(w)
}
