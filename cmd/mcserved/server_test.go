package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobilecache/internal/jobs"
)

func newTestServer(t *testing.T, opts jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if opts.Root == "" {
		opts.Root = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	opts.KeepGoing = true
	m, err := jobs.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-registered first: drain the manager before the
	// temp root is removed, because a job publishes its terminal state
	// before persisting it and may still be writing when a test ends.
	t.Cleanup(func() {
		if err := m.Shutdown(context.Background()); err != nil {
			t.Errorf("manager shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(newServer(m))
	t.Cleanup(ts.Close)
	return ts, m
}

const tinySpec = `{"machines": ["baseline-sram"], "apps": ["browser"], "seeds": [1, 2], "accesses": 2000}`

// longSpec runs long enough for tests to observe it mid-flight.
const longSpec = `{"machines": ["baseline-sram", "sp-mr"], "apps": ["browser", "social"], "seeds": [1, 2, 3, 4, 5, 6, 7, 8], "accesses": 400000}`

func postJob(t *testing.T, ts *httptest.Server, spec, client string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response body: %v", err)
	}
	return v
}

func submitOK(t *testing.T, ts *httptest.Server, spec, client string) string {
	t.Helper()
	resp := postJob(t, ts, spec, client)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit = %d, want 202; body %s", resp.StatusCode, body)
	}
	id, _ := decodeBody(t, resp)["id"].(string)
	if id == "" {
		t.Fatal("submit response missing id")
	}
	return id
}

func jobState(t *testing.T, ts *httptest.Server, id string) (state string, body map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body = decodeBody(t, resp)
	job, _ := body["job"].(map[string]any)
	state, _ = job["state"].(string)
	return state, body
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if state, _ := jobState(t, ts, id); state == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	state, _ := jobState(t, ts, id)
	t.Fatalf("job %s stuck in %q, want %q", id, state, want)
}

// The happy path end to end: submit, watch the JSONL stream deliver
// every cell plus the done summary, download the CSV.
func TestSubmitStreamDownload(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})
	id := submitOK(t, ts, tinySpec, "alice")

	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	cells := 0
	var done jobs.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "cell":
			cells++
			if ev.Machine == "" || ev.IPC <= 0 {
				t.Fatalf("cell event missing fields: %+v", ev)
			}
		case "done":
			done = ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 2 || done.Type != "done" || done.State != jobs.StateDone || done.Completed != 2 {
		t.Fatalf("stream saw %d cells, done=%+v", cells, done)
	}

	csvResp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusOK || csvResp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("csv = %d %q", csvResp.StatusCode, csvResp.Header.Get("Content-Type"))
	}
	data, _ := io.ReadAll(csvResp.Body)
	lines := bytes.Count(data, []byte("\n"))
	if !bytes.HasPrefix(data, []byte("machine,")) || lines != 3 {
		t.Fatalf("csv has %d lines, starts %q; want header + 2 cells", lines, data[:min(len(data), 40)])
	}
}

// SSE framing when the client asks for it.
func TestResultsSSE(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})
	id := submitOK(t, ts, tinySpec, "")
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+id+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("event: cell\ndata: ")) ||
		!bytes.Contains(body, []byte("event: done\ndata: ")) {
		t.Fatalf("SSE stream missing framed events:\n%s", body)
	}
}

// Admission answers: full queue and client bound are 429 with
// Retry-After, an oversized grid is 413, garbage is 400.
func TestAdmissionStatusCodes(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{
		Workers: 1, MaxJobs: 1, MaxClientJobs: 1, MaxCellsPerJob: 64,
	})
	id := submitOK(t, ts, longSpec, "alice")
	defer func() {
		ts.Client().Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
		waitState(t, ts, id, "cancelled")
	}()

	resp := postJob(t, ts, tinySpec, "bob")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overload: %d Retry-After=%q, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	big := `{"machines": ["baseline-sram"], "apps": ["browser"], "seeds": [` + seedList(100) + `], "accesses": 1000}`
	resp = postJob(t, ts, big, "carol")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grid = %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJob(t, ts, `{"machines": ["no-such-machine"]}`, "dave")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func seedList(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i+1)
	}
	return b.String()
}

// The per-client bound only throttles the offending client.
func TestClientLimit(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{Workers: 1, MaxClientJobs: 1})
	id := submitOK(t, ts, longSpec, "alice")
	defer func() {
		ts.Client().Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
		waitState(t, ts, id, "cancelled")
	}()

	resp := postJob(t, ts, tinySpec, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same client second job = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	other := submitOK(t, ts, tinySpec, "bob")
	waitState(t, ts, other, "done")
}

func TestCancelAndConflict(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{Workers: 1})
	id := submitOK(t, ts, longSpec, "")

	resp, err := ts.Client().Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", resp.StatusCode)
	}
	waitState(t, ts, id, "cancelled")

	csvResp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusConflict {
		t.Fatalf("csv of cancelled job = %d, want 409", csvResp.StatusCode)
	}

	missing, err := ts.Client().Get(ts.URL + "/jobs/feedfacedeadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", missing.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	ts, m := newTestServer(t, jobs.Options{})
	id := submitOK(t, ts, tinySpec, "")
	waitState(t, ts, id, "done")

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"mcserved_cells_done_total 2",
		`mcserved_jobs{state="done"} 1`,
		"mcserved_queue_depth",
		"mcserved_cells_per_second",
		"mcserved_memo_hits_total",
		"mcserved_memo_duplicates_total",
		"mcserved_memo_shards",
		"mcserved_memo_shard_entries_max",
		"mcserved_trace_bytes_in_use",
		"mcserved_trace_demotions_total",
		"mcserved_trace_shards",
		"mcserved_trace_shard_entries_min",
		"mcserved_jobs_recovered_total 0",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Fatalf("/metrics missing %q:\n%s", metric, body)
		}
	}

	// Draining flips readiness but not liveness.
	if err := m.Shutdown(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	ready, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", ready.StatusCode)
	}
	live, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", live.StatusCode)
	}
	drained := postJob(t, ts, tinySpec, "")
	if drained.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", drained.StatusCode)
	}
	drained.Body.Close()
}

// Flag validation fails fast with a clear message and exit code 2.
func TestRunFlagValidation(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "-1"},
		{"-max-jobs", "0"},
		{"-timeout", "-1s"},
		{"-drain-timeout", "0s"},
		{"-data", ""},
	} {
		var out, errOut bytes.Buffer
		if code := run(bad, &out, &errOut); code != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr %q)", bad, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Fatalf("run(%v) produced no diagnostic", bad)
		}
	}
}

// Cells run once, so the retired retry knob is an undefined flag.
func TestRunRejectsRetiredRetriesFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-retries", "1"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-retries 1) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "not defined: -retries") {
		t.Fatalf("stderr %q, want an undefined-flag error", errOut.String())
	}
}

// Every report is audited, so the retired audit-mode knob is an
// undefined flag.
func TestRunRejectsRetiredAuditFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-audit", "strict"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-audit strict) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "not defined: -audit") {
		t.Fatalf("stderr %q, want an undefined-flag error", errOut.String())
	}
}

// -trace-cache-mb means what it means on mcsweep and mcbench: 256 MB by
// default, and 0 is an unlimited arena, not the engine default.
func TestTraceCacheFlagMapping(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int64
	}{
		{nil, 256 << 20},
		{[]string{"-trace-cache-mb", "64"}, 64 << 20},
		{[]string{"-trace-cache-mb", "0"}, -1},
	} {
		fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
		var opt options
		opt.register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := opt.jobsOptions(nil, nil).TraceBudgetBytes; got != tc.want {
			t.Errorf("%v: TraceBudgetBytes = %d, want %d", tc.args, got, tc.want)
		}
	}
}

func ctxWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}
