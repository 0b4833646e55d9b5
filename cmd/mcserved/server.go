package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"mobilecache/internal/jobs"
)

// failureTailLen is how many trailing failure events a status response
// carries — enough for triage without shipping a million-line manifest.
const failureTailLen = 10

// server is the HTTP face of a jobs.Manager.
type server struct {
	m   *jobs.Manager
	mux *http.ServeMux
}

func newServer(m *jobs.Manager) http.Handler {
	s := &server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("POST /jobs/{$}", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{$}", s.list)
	s.mux.HandleFunc("GET /jobs/{id}", s.status)
	s.mux.HandleFunc("GET /jobs/{id}/results", s.results)
	s.mux.HandleFunc("GET /jobs/{id}/csv", s.csv)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s.mux
}

// clientID identifies the submitter for per-client admission limits:
// an explicit X-Client-ID header, else the peer address without port.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// fail maps manager sentinels onto HTTP status codes and writes a JSON
// error body. Overload answers carry Retry-After so well-behaved
// clients back off instead of hammering.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, jobs.ErrNotFinished):
		code = http.StatusConflict
	case errors.Is(err, jobs.ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, jobs.ErrOverloaded), errors.Is(err, jobs.ErrClientLimit):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "5")
	case errors.Is(err, jobs.ErrDraining):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "30")
	case errors.Is(err, jobs.ErrDegraded):
		// Storage cannot make submissions durable; the probe reopens
		// admission once writes succeed again, so a short retry is right.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "10")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobs.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		fail(w, err)
		return
	}
	j, err := s.m.Submit(spec, clientID(r))
	if err != nil {
		fail(w, err)
		return
	}
	st := j.Status()
	w.Header().Set("Location", "/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      j.ID(),
		"cells":   st.Total,
		"state":   st.State,
		"results": "/jobs/" + j.ID() + "/results",
		"csv":     "/jobs/" + j.ID() + "/csv",
	})
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":      j.Status(),
		"failures": j.FailureTail(failureTailLen),
	})
}

// results streams the job's events. Default framing is JSONL — one
// event object per line, ending with a "done" summary; with
// Accept: text/event-stream the same events go out as SSE data
// records. Either way the connection stays open until the job is
// terminal or the client goes away.
func (s *server) results(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	streamErr := j.Stream(r.Context(), func(ev jobs.Event) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	// The stream either completed (nil: "done" event delivered) or the
	// client/context went away mid-stream — the response is already
	// committed, nothing more to write.
	_ = streamErr
}

func (s *server) csv(w http.ResponseWriter, r *http.Request) {
	f, err := s.m.ResultCSV(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", r.PathValue("id")+".csv"))
	io.Copy(w, f)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	if err := s.m.Cancel(r.PathValue("id")); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// readyz flips to 503 once draining starts — or while the store is
// degraded by I/O errors — so load balancers stop routing new work
// while in-flight cells finish (or storage recovers).
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if s.m.Degraded() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "degraded\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// metrics renders the manager counters as Prometheus text exposition.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.m.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	gauge("mcserved_uptime_seconds", "Seconds since the daemon started.", st.Uptime.Seconds())
	counter("mcserved_cells_done_total", "Cells completed successfully (resumed replays included).", st.CellsDone)
	counter("mcserved_cells_failed_total", "Cells that failed.", st.CellsFailed)
	counter("mcserved_cells_resumed_total", "Cells replayed from checkpoint journals instead of re-simulated.", st.CellsResumed)
	counter("mcserved_jobs_recovered_total", "Interrupted jobs resumed at startup.", st.JobsRecovered)
	counter("mcserved_io_errors_total", "Persistence-path I/O faults absorbed (ENOSPC, EIO, crash).", st.IOErrors)
	counter("mcserved_resume_after_fault_total", "Executions that recovered from a torn checkpoint tail.", st.ResumeAfterFault)
	degraded := 0.0
	if st.Degraded {
		degraded = 1
	}
	gauge("mcserved_degraded", "1 while I/O errors have paused admission, else 0.", degraded)
	rate := 0.0
	if s := st.Uptime.Seconds(); s > 0 {
		rate = float64(st.CellsDone) / s
	}
	gauge("mcserved_cells_per_second", "Completed cells per second of uptime.", rate)
	gauge("mcserved_jobs_active", "Non-terminal jobs held by the daemon.", float64(st.ActiveJobs))
	fmt.Fprintf(&b, "# HELP mcserved_jobs Jobs by lifecycle state.\n# TYPE mcserved_jobs gauge\n")
	for _, state := range []jobs.State{
		jobs.StatePending, jobs.StateRunning, jobs.StateDraining,
		jobs.StateDone, jobs.StateFailed, jobs.StateCancelled,
	} {
		fmt.Fprintf(&b, "mcserved_jobs{state=%q} %d\n", state, st.ByState[state])
	}
	gauge("mcserved_cells_inflight", "Cells currently executing.", float64(st.InFlight))
	gauge("mcserved_queue_depth", "Cells waiting for a worker slot.", float64(st.Waiting))
	gauge("mcserved_worker_slots", "Worker slots shared by all jobs.", float64(st.Slots))
	counter("mcserved_memo_hits_total", "Run-memo hits.", st.Memo.Hits)
	counter("mcserved_memo_misses_total", "Run-memo misses.", st.Memo.Misses)
	counter("mcserved_memo_evictions_total", "Run-memo evictions.", st.Memo.Evictions)
	counter("mcserved_memo_duplicates_total", "Run-memo adds that found the key already cached.", st.Memo.Duplicates)
	gauge("mcserved_memo_entries", "Run-memo resident entries.", float64(st.Memo.Entries))
	counter("mcserved_trace_hits_total", "Trace-arena hits.", st.Store.Hits)
	counter("mcserved_trace_misses_total", "Trace-arena misses.", st.Store.Misses)
	counter("mcserved_trace_generated_total", "Trace-arena builds: front-stage outputs, each from a freshly generated trace.", st.Store.Generated)
	counter("mcserved_trace_derived_total", "Trace-arena derived builds (front-stage outputs); included in generated.", st.Store.Derived)
	counter("mcserved_trace_evictions_total", "Trace-arena evictions.", st.Store.Evictions)
	gauge("mcserved_trace_bytes_in_use", "Trace-arena resident bytes.", float64(st.Store.BytesInUse))
	gauge("mcserved_trace_entries", "Trace-arena resident entries (front-stage outputs).", float64(st.Store.Entries))

	io.WriteString(w, b.String())
}
