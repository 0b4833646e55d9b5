// Package jobs turns the execution pipeline (internal/engine) into a
// long-running, crash-resumable sweep service: clients submit sweep
// specs, get job IDs, stream per-cell results as they complete, query
// progress and cancel — while the manager keeps every job durable
// through the engine's checkpoint journal, schedules runnable jobs
// fairly over one shared worker-slot set, sheds load with bounded
// admission, and drains gracefully on shutdown.
//
// Lifecycle (the job FSM):
//
//	pending ─→ running ─→ done        (all cells finished; result.csv final)
//	              │  ├──→ failed      (execution error; journal kept)
//	              │  ├──→ cancelled   (client cancel; terminal)
//	              └──→ draining ─→ (process exit; resumed as running on restart)
//
// Durability: every completed cell is appended to the job's CRC-framed
// journal before it counts as done. A daemon killed at any point —
// SIGKILL included — rescans the store on restart and resumes every
// non-terminal job from its journal's longest valid prefix, so the
// final CSV is byte-identical to an uninterrupted run.
package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/runner"
	"mobilecache/internal/tracestore"
)

// State is a job's FSM state.
type State string

const (
	// StatePending: accepted and durable, not yet executing.
	StatePending State = "pending"
	// StateRunning: cells are being scheduled and executed.
	StateRunning State = "running"
	// StateDraining: shutdown in progress; in-flight cells finishing,
	// nothing new dispatched. Resumed as running on restart.
	StateDraining State = "draining"
	// StateDone: every cell accounted for; result.csv is final.
	StateDone State = "done"
	// StateFailed: the execution aborted with an error.
	StateFailed State = "failed"
	// StateCancelled: the client cancelled the job.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrOverloaded: the bounded admission queue is full (HTTP 429).
	ErrOverloaded = errors.New("jobs: admission queue full")
	// ErrClientLimit: the client is at its concurrent-job bound (429).
	ErrClientLimit = errors.New("jobs: per-client concurrent job limit reached")
	// ErrTooLarge: the spec's grid exceeds the per-job cell budget (413).
	ErrTooLarge = errors.New("jobs: spec exceeds the per-job cell budget")
	// ErrDraining: the daemon is shutting down (503).
	ErrDraining = errors.New("jobs: daemon is draining")
	// ErrDegraded: the store is shedding admissions after persistent
	// I/O errors (disk full, failed fsync); running jobs keep draining
	// and a background probe reopens admission when writes succeed
	// again (503 + Retry-After).
	ErrDegraded = errors.New("jobs: store degraded by I/O errors; admission paused")
	// ErrNotFound: no such job (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotFinished: the final CSV is not available yet (409).
	ErrNotFinished = errors.New("jobs: job has not finished")
)

// Options shapes a Manager. The zero value of each field selects the
// documented default.
type Options struct {
	// Root is the job store directory (required).
	Root string
	// Workers is the machine-wide worker-slot count shared by every
	// job; <= 0 uses GOMAXPROCS.
	Workers int
	// MaxJobs bounds the admission queue: the number of non-terminal
	// jobs the daemon holds at once; <= 0 selects 64.
	MaxJobs int
	// MaxClientJobs bounds one client's concurrent non-terminal jobs;
	// <= 0 selects 8.
	MaxClientJobs int
	// MaxCellsPerJob is the per-job cell budget; <= 0 selects 1<<20.
	MaxCellsPerJob int
	// Timeout is the per-cell deadline (see engine.Config).
	Timeout time.Duration
	// KeepGoing lets sibling cells of a failed cell complete (the
	// service default; a daemon aborting a whole job on one bad cell
	// would punish every multi-hour sweep for one bad machine entry).
	KeepGoing bool
	// TraceBudgetBytes bounds the shared trace arena (see engine.Config).
	TraceBudgetBytes int64
	// Log receives recovery and degradation notes; nil discards them.
	Log io.Writer
	// FS is the filesystem every durable artifact goes through; nil
	// selects the real one. Fault-injection tests (and the
	// MCSERVED_FAULT hook) swap in a faultfs.FaultFS.
	FS faultfs.FS
	// ProbeInterval is how often a degraded manager retries a probe
	// write to the store before reopening admission; <= 0 selects
	// DefaultProbeInterval.
	ProbeInterval time.Duration
}

// Defaults for Options.
const (
	DefaultMaxJobs        = 64
	DefaultMaxClientJobs  = 8
	DefaultMaxCellsPerJob = 1 << 20
	DefaultProbeInterval  = 500 * time.Millisecond
)

// Event is one streamed job happening, rendered to clients as a JSONL
// line or an SSE data record.
type Event struct {
	// Type is "cell" (a completed cell), "failure" (a failed cell) or
	// "done" (the terminal summary).
	Type string `json:"type"`
	// Index is the cell's plan position. Cell and failure events
	// always carry it, index 0 included; a done event has none.
	Index   *int   `json:"index,omitempty"`
	Machine string `json:"machine,omitempty"`
	App     string `json:"app,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	// Headline metrics of a completed cell (the CSV carries the full
	// schema; the stream carries what a dashboard plots live).
	IPC          float64 `json:"ipc,omitempty"`
	L2MissRate   float64 `json:"l2_missrate,omitempty"`
	L2EnergyJ    float64 `json:"l2_total_j,omitempty"`
	TotalEnergyJ float64 `json:"total_j,omitempty"`
	// Failure details.
	Error string `json:"error,omitempty"`
	// Terminal summary ("done" events).
	State     State `json:"state,omitempty"`
	Total     int   `json:"total,omitempty"`
	Completed int   `json:"completed,omitempty"`
	Failed    int   `json:"failed,omitempty"`
}

// Status is a job's progress snapshot.
type Status struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	State     State     `json:"state"`
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Resumed   uint64    `json:"resumed"`
	Created   time.Time `json:"created"`
	Error     string    `json:"error,omitempty"`
}

// Job is one submitted sweep.
type Job struct {
	id      string
	client  string
	created time.Time
	dir     string
	plan    engine.Plan
	m       *Manager

	cancel    context.CancelFunc
	cancelled atomic.Bool

	mu      sync.Mutex
	state   State
	err     string
	events  []Event
	notify  chan struct{}
	total   int
	done    int // successful cells
	failed  int
	resumed uint64
	// finished is closed when the job reaches a terminal state.
	finished chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job's progress.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, Client: j.client, State: j.state,
		Total: j.total, Completed: j.done, Failed: j.failed,
		Resumed: j.resumed, Created: j.created, Error: j.err,
	}
}

// Finished is closed when the job reaches a terminal state.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// appendEvent records one event and wakes every stream follower.
func (j *Job) appendEvent(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	// Let the woken followers deliver the event now. Workers run cells
	// back to back without blocking, so on a host where every core runs
	// a cell a follower would otherwise wait for preemption, often until
	// the job has finished.
	runtime.Gosched()
}

// setState transitions the FSM, persists the new state durably, and
// wakes followers. Terminal transitions close Finished.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.err = errMsg
	ps := persistentState{
		State: s, Error: errMsg, Total: j.total,
		Completed: j.done, Failed: j.failed, Updated: time.Now().UTC(),
	}
	terminal := s.Terminal()
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	if err := faultfs.WriteJSONAtomic(j.m.fsys, filepath.Join(j.dir, stateFile), ps); err != nil {
		j.m.warn(fmt.Sprintf("jobs: persisting state of %s: %v", j.id, err))
		j.m.noteIOError(err)
	}
	if terminal {
		close(j.finished)
	}
}

// Stream replays the job's events from the beginning and follows new
// ones until the job is terminal (a final "done" summary event is
// emitted), ctx ends, or fn returns an error. Safe for any number of
// concurrent followers.
func (j *Job) Stream(ctx context.Context, fn func(Event) error) error {
	cursor := 0
	for {
		j.mu.Lock()
		events := j.events[cursor:]
		cursor = len(j.events)
		terminal := j.state.Terminal()
		wait := j.notify
		j.mu.Unlock()
		for _, ev := range events {
			if err := fn(ev); err != nil {
				return err
			}
		}
		if terminal {
			st := j.Status()
			return fn(Event{Type: "done", State: st.State,
				Total: st.Total, Completed: st.Completed, Failed: st.Failed, Error: st.Error})
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// onResult is the engine's progress callback: counts, metrics and one
// "cell" event per completed cell (concurrent-safe; completion order).
func (j *Job) onResult(r engine.Result) {
	j.mu.Lock()
	j.done++
	if r.Resumed {
		j.resumed++
	}
	j.mu.Unlock()
	j.m.cellsDone.Add(1)
	if r.Resumed {
		j.m.cellsResumed.Add(1)
	}
	j.appendEvent(cellEvent(r))
}

// onFailure records failed cells. Cancellation casualties — cells
// lost to a shutdown or a client cancel, not to their own behavior —
// are not failures: the resumed run will complete them.
func (j *Job) onFailure(e *runner.RunError) {
	if errors.Is(e.Err, context.Canceled) {
		return
	}
	j.mu.Lock()
	j.failed++
	j.mu.Unlock()
	j.m.cellsFailed.Add(1)
	j.appendEvent(Event{
		Type: "failure", Index: planIndex(e.Cell.Index),
		Machine: e.Cell.Machine, App: e.Cell.App, Seed: e.Cell.Seed,
		Error: e.Err.Error(),
	})
}

// cellEvent renders one successful cell for the stream.
func cellEvent(r engine.Result) Event {
	return Event{
		Type: "cell", Index: planIndex(r.Index),
		Machine: r.Cell.Machine, App: r.Cell.App, Seed: r.Cell.Seed,
		Resumed:      r.Resumed,
		IPC:          r.Report.IPC(),
		L2MissRate:   r.Report.L2.MissRate(),
		L2EnergyJ:    r.Report.Energy.L2.Total(),
		TotalEnergyJ: r.Report.Energy.TotalJ(),
	}
}

// planIndex boxes a plan position for Event.Index.
func planIndex(i int) *int { return &i }

// Stats is the manager-wide counter snapshot behind /metrics.
type Stats struct {
	Uptime        time.Duration
	CellsDone     uint64
	CellsFailed   uint64
	CellsResumed  uint64
	JobsRecovered uint64
	// IOErrors counts persistence-path I/O faults (ENOSPC, EIO, crash)
	// the manager has absorbed; Degraded reports whether admission is
	// currently paused by them; ResumeAfterFault counts executions that
	// recovered from a torn journal tail.
	IOErrors         uint64
	ResumeAfterFault uint64
	Degraded         bool
	// ActiveJobs counts non-terminal jobs; ByState the full census.
	ActiveJobs int
	ByState    map[State]int
	// InFlight/Waiting are the gate's current cell occupancy and queue
	// depth.
	InFlight int
	Waiting  int
	Slots    int
	Memo     engine.MemoStats
	Store    tracestore.Stats
}

// Manager owns the job store, the shared engine and the fair gate.
type Manager struct {
	opts Options
	eng  *engine.Engine
	gate *rrGate
	fsys faultfs.FS

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order
	active  int      // non-terminal jobs
	drained bool     // admission closed

	wg      sync.WaitGroup
	started time.Time

	cellsDone     atomic.Uint64
	cellsFailed   atomic.Uint64
	cellsResumed  atomic.Uint64
	jobsRecovered atomic.Uint64

	// Degraded mode: persistent I/O errors (ENOSPC, failed fsync,
	// simulated crash in tests) flip degraded and pause admission;
	// running jobs keep draining, and a background probe write reopens
	// admission when the store accepts durable writes again.
	ioErrors         atomic.Uint64
	resumeAfterFault atomic.Uint64
	degraded         atomic.Bool
	probeWG          sync.WaitGroup
	stop             chan struct{}
	stopOnce         sync.Once
}

// New opens (creating if needed) the job store at opts.Root and
// recovers it: terminal jobs are indexed for listing and CSV download,
// and every job that was pending, running or draining when the
// previous process died is resumed from its journal's valid prefix.
func New(opts Options) (*Manager, error) {
	if opts.Root == "" {
		return nil, fmt.Errorf("jobs: Options.Root is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	if opts.MaxClientJobs <= 0 {
		opts.MaxClientJobs = DefaultMaxClientJobs
	}
	if opts.MaxCellsPerJob <= 0 {
		opts.MaxCellsPerJob = DefaultMaxCellsPerJob
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if err := opts.FS.MkdirAll(opts.Root, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store root: %w", err)
	}
	m := &Manager{
		opts: opts,
		fsys: opts.FS,
		stop: make(chan struct{}),
		eng: engine.New(engine.Config{
			Workers:          opts.Workers,
			Timeout:          opts.Timeout,
			KeepGoing:        opts.KeepGoing,
			TraceBudgetBytes: opts.TraceBudgetBytes,
		}),
		gate:    newRRGate(opts.Workers),
		jobs:    map[string]*Job{},
		started: time.Now(),
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manager) warn(msg string) {
	if m.opts.Log != nil {
		fmt.Fprintln(m.opts.Log, msg)
	}
}

// Engine exposes the shared engine (metrics, tests).
func (m *Manager) Engine() *engine.Engine { return m.eng }

// recover scans the store and restarts every non-terminal job. It
// holds m.mu throughout: the first resumed job's goroutine is already
// calling back into the manager while later jobs are still loading.
func (m *Manager) recover() error {
	recs, err := scanStore(m.fsys, m.opts.Root, m.warn)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		j := &Job{
			id: r.meta.ID, client: r.meta.Client, created: r.meta.Created,
			dir: r.dir, m: m,
			notify: make(chan struct{}), finished: make(chan struct{}),
			state: r.state.State, err: r.state.Error,
			total: r.state.Total, done: r.state.Completed, failed: r.state.Failed,
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		if j.state.Terminal() {
			close(j.finished)
			continue
		}
		// Non-terminal: resolve and resume. A spec that no longer
		// resolves (deleted config file) fails the job rather than the
		// daemon.
		plan, perr := r.meta.Spec.Plan()
		if perr != nil {
			j.total = r.meta.Spec.Cells()
			j.setState(StateFailed, fmt.Sprintf("resuming: %v", perr))
			continue
		}
		j.plan = plan
		j.total = len(plan.Cells)
		j.done, j.failed, j.resumed = 0, 0, 0 // recounted by the resumed execution
		m.active++
		m.jobsRecovered.Add(1)
		m.warn(fmt.Sprintf("jobs: resuming %s (%d cells)", j.id, j.total))
		m.startLocked(j)
	}
	return nil
}

// Submit admits one job: validates and resolves the spec, enforces the
// admission bounds, makes the job durable, and starts executing it.
func (m *Manager) Submit(spec Spec, client string) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n := spec.Cells(); n > m.opts.MaxCellsPerJob {
		return nil, fmt.Errorf("%w: %d cells > budget %d", ErrTooLarge, n, m.opts.MaxCellsPerJob)
	}
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.drained {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if m.degraded.Load() {
		// A store that cannot make submissions durable must not accept
		// them: shedding here is what keeps "admitted" meaning
		// "crash-safe". Running jobs keep draining on whatever storage
		// still works; the probe reopens admission on recovery.
		m.mu.Unlock()
		return nil, ErrDegraded
	}
	if m.active >= m.opts.MaxJobs {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d jobs in flight)", ErrOverloaded, m.opts.MaxJobs)
	}
	if client != "" {
		n := 0
		for _, other := range m.jobs {
			if other.client == client && !other.Status().State.Terminal() {
				n++
			}
		}
		if n >= m.opts.MaxClientJobs {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w (%d)", ErrClientLimit, m.opts.MaxClientJobs)
		}
	}
	// Reserve the admission slot before the (unlocked) disk writes.
	m.active++
	m.mu.Unlock()

	j := &Job{
		id: id, client: client, created: time.Now().UTC(),
		dir: filepath.Join(m.opts.Root, id), plan: plan, m: m,
		state: StatePending, total: len(plan.Cells),
		notify: make(chan struct{}), finished: make(chan struct{}),
	}
	// Plain assignment, not `if err := ...`: a shadowed err here once
	// swallowed meta/state write failures and admitted jobs that were
	// never made durable.
	err = m.fsys.MkdirAll(j.dir, 0o755)
	if err == nil {
		err = faultfs.WriteJSONAtomic(m.fsys, filepath.Join(j.dir, metaFile), meta{
			ID: id, Client: client, Created: j.created, Spec: spec,
		})
		if err == nil {
			err = faultfs.WriteJSONAtomic(m.fsys, filepath.Join(j.dir, stateFile), persistentState{
				State: StatePending, Total: j.total, Updated: j.created,
			})
		}
	} else {
		err = fmt.Errorf("jobs: creating job dir: %w", err)
	}
	if err != nil {
		m.fsys.RemoveAll(j.dir)
		m.noteIOError(err)
		m.mu.Lock()
		m.active--
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	if m.drained {
		// Shutdown won the race: refuse rather than start a job the
		// drain will never schedule.
		m.active--
		m.mu.Unlock()
		m.fsys.RemoveAll(j.dir)
		return nil, ErrDraining
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.startLocked(j)
	m.mu.Unlock()
	return j, nil
}

// startLocked launches the job's execution goroutine. Caller holds
// m.mu (or is in single-threaded recovery).
func (m *Manager) startLocked(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.runJob(ctx, j)
	}()
}

// runJob drives one job through the engine and lands it in a terminal
// state — or parks it as draining for the next process to resume. The
// result CSV accumulates in memory and lands atomically (write temp,
// fsync, rename, fsync dir) only when the execution completed: the
// result.csv path either holds a complete result or does not exist.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	j.setState(StateRunning, "")

	var buf bytes.Buffer
	sum, execErr := m.eng.Execute(ctx, j.plan, engine.ExecOptions{
		CheckpointPath: filepath.Join(j.dir, journalFile),
		Resume:         true,
		FailuresPath:   filepath.Join(j.dir, failuresFile),
		OnResult:       j.onResult,
		OnFailure:      j.onFailure,
		Gate:           m.gate.forJob(j.id),
		Log:            m.opts.Log,
		FS:             m.fsys,
	}, engine.NewCSV(&buf))
	if sum.CheckpointDiscarded > 0 {
		// This execution recovered from a torn journal tail — the
		// signature of a crash or I/O fault in a previous run.
		m.resumeAfterFault.Add(1)
	}

	switch {
	case execErr == nil:
		resultPath := filepath.Join(j.dir, resultFile)
		if err := faultfs.WriteFileAtomic(m.fsys, resultPath, func(w io.Writer) error {
			_, werr := w.Write(buf.Bytes())
			return werr
		}); err != nil {
			// The write may have failed after the rename landed (the
			// parent-dir fsync): scrub the file so a failed job never
			// carries a result.csv of doubtful durability.
			m.fsys.Remove(resultPath)
			m.noteIOError(err)
			j.setState(StateFailed, fmt.Sprintf("finalizing result: %v", err))
			break
		}
		j.setState(StateDone, "")
	case errors.Is(execErr, context.Canceled):
		if j.cancelled.Load() {
			j.setState(StateCancelled, "cancelled by client")
		} else {
			// Shutdown drain: park resumable. The journal holds every
			// completed cell; the next process picks it up.
			j.setState(StateDraining, "")
		}
	default:
		m.noteIOError(execErr)
		j.setState(StateFailed, execErr.Error())
	}
	m.finish(j)
}

// noteIOError inspects an error from the persistence path and, when it
// is an I/O fault (ENOSPC, EIO, simulated crash), counts it and flips
// the manager into degraded mode: admission pauses with ErrDegraded
// while running jobs keep draining, and a probe goroutine reopens
// admission once the store accepts durable writes again.
func (m *Manager) noteIOError(err error) {
	if err == nil || !faultfs.IsIOFault(err) {
		return
	}
	m.ioErrors.Add(1)
	if m.degraded.CompareAndSwap(false, true) {
		m.warn(fmt.Sprintf("jobs: store degraded (%v); pausing admission, probing every %s",
			err, m.opts.ProbeInterval))
		m.probeWG.Add(1)
		go m.probeLoop()
	}
}

// probeLoop retries a durable probe write until the store recovers,
// then clears degraded mode. One loop runs per degraded episode.
func (m *Manager) probeLoop() {
	defer m.probeWG.Done()
	ticker := time.NewTicker(m.opts.ProbeInterval)
	defer ticker.Stop()
	probe := filepath.Join(m.opts.Root, ".probe")
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		err := faultfs.WriteFileAtomic(m.fsys, probe, func(w io.Writer) error {
			_, werr := io.WriteString(w, "mcserved store probe\n")
			return werr
		})
		if err != nil {
			continue
		}
		m.fsys.Remove(probe)
		m.degraded.Store(false)
		m.warn("jobs: store recovered; admission reopened")
		return
	}
}

// Degraded reports whether admission is paused by I/O faults.
func (m *Manager) Degraded() bool { return m.degraded.Load() }

// finish releases the job's admission slot.
func (m *Manager) finish(j *Job) {
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List snapshots every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel stops a job. In-flight cells stop at their next replay frame
// without a result; completed cells stay journaled. Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	if j.Status().State.Terminal() {
		return nil
	}
	j.cancelled.Store(true)
	if j.cancel != nil {
		j.cancel()
	}
	return nil
}

// ResultCSV opens a finished job's final CSV.
func (m *Manager) ResultCSV(id string) (*os.File, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if j.Status().State != StateDone {
		return nil, ErrNotFinished
	}
	return os.Open(filepath.Join(j.dir, resultFile))
}

// Draining reports whether admission is closed.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drained
}

// Shutdown drains the daemon: admission closes immediately, no new
// cells are dispatched, in-flight cells get until ctx's deadline to
// finish, then every remaining execution is cancelled — its running
// cells stop at their next replay frame — and awaited. Journals and
// manifests are fsynced as the executions unwind, so whatever the
// deadline cut off is resumable on restart. The returned error is
// ctx's when the drain deadline expired (in-flight cells were
// cancelled), nil for a clean drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.drained = true
	m.mu.Unlock()

	m.gate.drain()
	drainErr := m.gate.waitIdle(ctx)

	// Unblock every execution — workers parked in Acquire, feed loops —
	// whether or not the drain completed.
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.stopOnce.Do(func() { close(m.stop) })
	m.probeWG.Wait()
	return drainErr
}

// Stats snapshots the manager counters for /metrics.
func (m *Manager) Stats() Stats {
	inflight, waiting := m.gate.depth()
	st := Stats{
		Uptime:        time.Since(m.started),
		CellsDone:     m.cellsDone.Load(),
		CellsFailed:   m.cellsFailed.Load(),
		CellsResumed:  m.cellsResumed.Load(),
		JobsRecovered: m.jobsRecovered.Load(),

		IOErrors:         m.ioErrors.Load(),
		ResumeAfterFault: m.resumeAfterFault.Load(),
		Degraded:         m.degraded.Load(),

		InFlight: inflight,
		Waiting:  waiting,
		Slots:    m.gate.total,
		Memo:     m.eng.MemoStats(),
		Store:    m.eng.Store().Stats(),
		ByState:  map[State]int{},
	}
	for _, s := range m.List() {
		st.ByState[s.State]++
		if !s.State.Terminal() {
			st.ActiveJobs++
		}
	}
	return st
}

// FailureTail returns the last n failure events of a job, newest last
// — the quick triage view /jobs/{id} serves.
func (j *Job) FailureTail(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []Event
	for i := len(j.events) - 1; i >= 0 && len(tail) < n; i-- {
		if j.events[i].Type == "failure" {
			tail = append(tail, j.events[i])
		}
	}
	// Reverse to oldest-first.
	for l, r := 0, len(tail)-1; l < r; l, r = l+1, r-1 {
		tail[l], tail[r] = tail[r], tail[l]
	}
	return tail
}
