// Command mcserved serves the sweep engine over HTTP: clients POST a
// sweep spec (the mcsweep JSON format), get a job id back, stream
// per-cell results as JSONL or SSE, download the final CSV, and
// cancel. Every job is crash-resumable: completed cells land in a
// per-job checkpoint journal, and a restarted daemon resumes every
// interrupted job from the journal's longest valid prefix.
//
// Endpoints:
//
//	POST /jobs               submit a spec          → 202 {"id": ...}
//	GET  /jobs               list jobs              → 200 JSON array
//	GET  /jobs/{id}          status + failure tail  → 200 JSON
//	GET  /jobs/{id}/results  stream events          → JSONL (SSE with
//	                         Accept: text/event-stream)
//	GET  /jobs/{id}/csv      final CSV              → 200 text/csv
//	POST /jobs/{id}/cancel   cancel                 → 200
//	GET  /healthz            liveness               → 200
//	GET  /readyz             readiness              → 200, 503 draining
//	GET  /metrics            Prometheus-style text  → 200
//
// SIGINT/SIGTERM closes admission, drains in-flight cells up to
// -drain-timeout, fsyncs every journal, and exits; whatever the
// deadline cut off resumes on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/jobs"
)

type options struct {
	addr          string
	data          string
	workers       int
	maxJobs       int
	maxClientJobs int
	maxCells      int
	timeout       time.Duration
	keepGoing     bool
	traceCacheMB  int
	drainTimeout  time.Duration
	probeInterval time.Duration
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8347", "listen address")
	fs.StringVar(&o.data, "data", "mcserved-data", "job store directory (journals, manifests, results)")
	fs.IntVar(&o.workers, "workers", 0, "worker slots shared by all jobs (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxJobs, "max-jobs", jobs.DefaultMaxJobs, "admission bound: concurrent non-terminal jobs")
	fs.IntVar(&o.maxClientJobs, "max-client-jobs", jobs.DefaultMaxClientJobs, "per-client concurrent job bound")
	fs.IntVar(&o.maxCells, "max-cells", jobs.DefaultMaxCellsPerJob, "per-job cell budget")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-cell deadline; a cell that reaches it stops and fails (0 = none)")
	fs.BoolVar(&o.keepGoing, "keep-going", true, "let sibling cells finish when a cell fails")
	fs.IntVar(&o.traceCacheMB, "trace-cache-mb", 256, "trace arena LRU budget in MB (0 = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	fs.DurationVar(&o.probeInterval, "probe-interval", jobs.DefaultProbeInterval,
		"how often a degraded store is probed before reopening admission")
}

func (o *options) validate() error {
	if o.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.data == "" {
		return fmt.Errorf("-data must not be empty")
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", o.workers)
	}
	if o.maxJobs <= 0 {
		return fmt.Errorf("-max-jobs must be positive (got %d)", o.maxJobs)
	}
	if o.maxClientJobs <= 0 {
		return fmt.Errorf("-max-client-jobs must be positive (got %d)", o.maxClientJobs)
	}
	if o.maxCells <= 0 {
		return fmt.Errorf("-max-cells must be positive (got %d)", o.maxCells)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", o.timeout)
	}
	if o.traceCacheMB < 0 {
		return fmt.Errorf("-trace-cache-mb must be >= 0 (got %d)", o.traceCacheMB)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive (got %v)", o.drainTimeout)
	}
	if o.probeInterval <= 0 {
		return fmt.Errorf("-probe-interval must be positive (got %v)", o.probeInterval)
	}
	return nil
}

// jobsOptions maps the flags onto the job manager's options.
// -trace-cache-mb goes through engine.TraceBudgetMB, so 0 means an
// unlimited arena here exactly as on mcsweep and mcbench.
func (o *options) jobsOptions(log io.Writer, fsys faultfs.FS) jobs.Options {
	return jobs.Options{
		Root:             o.data,
		Workers:          o.workers,
		MaxJobs:          o.maxJobs,
		MaxClientJobs:    o.maxClientJobs,
		MaxCellsPerJob:   o.maxCells,
		Timeout:          o.timeout,
		KeepGoing:        o.keepGoing,
		TraceBudgetBytes: engine.TraceBudgetMB(o.traceCacheMB),
		Log:              log,
		FS:               fsys,
		ProbeInterval:    o.probeInterval,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var opt options
	opt.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintf(errOut, "mcserved: %v\n", err)
		return 2
	}

	// MCSERVED_FAULT is a test hook: a faultfs plan spec (see
	// faultfs.ParsePlan) injected into the daemon's persistence path so
	// integration tests and the serve-smoke script can drive a real
	// degraded→recovered episode without filling a disk.
	var storeFS faultfs.FS
	if spec := os.Getenv("MCSERVED_FAULT"); spec != "" {
		plan, perr := faultfs.ParsePlan(spec)
		if perr != nil {
			fmt.Fprintf(errOut, "mcserved: MCSERVED_FAULT: %v\n", perr)
			return 2
		}
		fmt.Fprintf(errOut, "mcserved: MCSERVED_FAULT active: injecting %q into the store\n", spec)
		storeFS = faultfs.New(plan)
	}

	mgr, err := jobs.New(opt.jobsOptions(errOut, storeFS))
	if err != nil {
		fmt.Fprintf(errOut, "mcserved: %v\n", err)
		return 1
	}

	srv := &http.Server{
		Addr:    opt.addr,
		Handler: newServer(mgr),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	workers := opt.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "mcserved: listening on %s (store %s, %d worker slots)\n",
		opt.addr, opt.data, workers)

	select {
	case err := <-errCh:
		// The listener died before any signal: report and still drain the
		// manager so journals close cleanly.
		fmt.Fprintf(errOut, "mcserved: serve: %v\n", err)
		drainCtx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
		defer cancel()
		mgr.Shutdown(drainCtx)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately

	fmt.Fprintf(out, "mcserved: signal received, draining (deadline %v)\n", opt.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	// Stop accepting HTTP first so no new submissions race the drain,
	// then drain the manager.
	httpErr := srv.Shutdown(drainCtx)
	drainErr := mgr.Shutdown(drainCtx)
	switch {
	case drainErr != nil:
		fmt.Fprintf(errOut, "mcserved: drain deadline expired; interrupted jobs resume on next start: %v\n", drainErr)
		return 1
	case httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed):
		fmt.Fprintf(errOut, "mcserved: http shutdown: %v\n", httpErr)
		return 1
	}
	fmt.Fprintln(out, "mcserved: drained cleanly")
	return 0
}
