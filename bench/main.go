// Command bench is the repository benchmark: one process runs one
// workload at one seed, measures it for a fixed window, checks the
// simulator's outputs against references, and prints a host record
// line and then a result line of JSON. See README.md.
//
//	go run . -workload sweep-shared -seed 1 -seconds 10 -trace 0
//
// -trace 1 runs the traced pass instead and reports the per-layer
// metrics; its spans are written to -out/spans.json.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// options is one run's configuration; main fills it from flags and
// the smoke test shrinks it.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out is the scratch directory for daemon stores and spans.
	out string
	// accesses, when positive, overrides the workload's per-cell
	// accesses (the smoke test's tiny scale).
	accesses int
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// window is the measuring time of one phase: all of it untraced, or
// half untraced and half traced.
func (o options) window() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// outcome is one run's result.
type outcome struct {
	attempted, failed, checked int
	rounds                     int
	metrics                    map[string]float64
	spans                      []span
}

// correct reports whether every operation succeeded and the output
// check compared enough cells.
func (o *outcome) correct() bool { return o.failed == 0 && o.checked >= checkCells }

func run(ctx context.Context, o options) (*outcome, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.accesses > 0 {
		w.accesses = o.accesses
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if w.daemon {
		return runDaemon(ctx, w, o)
	}
	return runSweep(ctx, w, o)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep-shared, sweep-unique, sweep-sampled or daemon-jobs")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "scratch directory for daemon stores and the spans file")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *traced == 1

	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.trace {
		if err := writeSpans(filepath.Join(o.out, "spans.json"), res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			os.Exit(1)
		}
	}
	metrics := endToEnd
	if o.trace {
		metrics = perLayer
	}
	line, err := resultLine(res, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	host, err := json.Marshal(map[string]any{"host": hostRecord(o, res)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(host))
	fmt.Println(string(line))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line of a run: exactly the listed
// metrics, each with its unit.
func resultLine(res *outcome, metrics []metric) ([]byte, error) {
	vals := make(map[string]value, len(metrics))
	for _, m := range metrics {
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", m.name, v)
		}
		vals[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, vals})
}

// hostRecord is what a reader needs to compare two runs: the
// toolchain, the parallelism the process had and used, the CPU and
// kernel, and the run's own shape.
func hostRecord(o options, res *outcome) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"kernel":     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"rounds":     res.rounds,
		"workers":    workers,
		"checked":    res.checked,
	}
}

func readFile(path string) string {
	b, _ := os.ReadFile(path) // an unreadable file leaves the field empty
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// freshHeap returns the heap's free memory to the kernel and restarts
// the peak-RSS count, so the round that follows starts from the live
// heap alone, as a fresh mcsweep process would, and peakRSSMB then
// reads that round's own peak. Where /proc/self/clear_refs cannot be
// written the peak stays the process's.
func freshHeap() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
