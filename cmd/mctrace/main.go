// mctrace generates and inspects mobilecache trace files.
//
// Usage:
//
//	mctrace gen -app browser -n 1000000 -seed 1 -o browser.mctr [-text]
//	mctrace gen -profile custom.json -n 500000 -o custom.mctr
//	mctrace info trace.mctr
//	mctrace cat trace.mctr [-n 20]
//	mctrace profiles [-dump name]
//
// gen writes a synthetic trace for one app profile (built-in via -app,
// or a custom JSON profile via -profile); info summarizes a trace
// (record counts, kernel share, address range); cat prints records in
// the text format; profiles lists the built-in app profiles or dumps
// one as editable JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mobilecache/internal/report"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mctrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mctrace gen|info|cat [flags]")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:], out)
	case "info":
		return infoCmd(args[1:], out)
	case "cat":
		return catCmd(args[1:], out)
	case "profiles":
		return profilesCmd(args[1:], out)
	case "analyze":
		return analyzeCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, info, cat, analyze or profiles)", args[0])
	}
}

// analyzeCmd computes per-domain reuse-distance distributions — the
// statistic that determines each domain's miss curve and hence the
// segment sizes the paper's designs pick.
func analyzeCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	block := fs.Int("block", 64, "block granularity (power of two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mctrace analyze [-block n] <file>")
	}
	if *block <= 0 || *block&(*block-1) != 0 {
		return fmt.Errorf("block %d must be a power of two", *block)
	}
	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	ra := trace.Analyze(r, *block)
	if r.Err() != nil {
		return r.Err()
	}

	tb := report.NewTable(fmt.Sprintf("reuse analysis of %s (%dB blocks)", fs.Arg(0), *block),
		"domain", "accesses", "footprint", "cold misses", "est hitrate @256KB", "@512KB", "@1MB")
	for _, d := range []trace.Domain{trace.User, trace.Kernel} {
		st := ra.Stats(d)
		blocksOf := func(bytes uint64) uint64 { return bytes / uint64(*block) }
		tb.AddRow(d.String(),
			fmt.Sprint(st.Accesses),
			report.Bytes(st.DistinctBlocks*uint64(*block)),
			fmt.Sprint(st.ColdMisses),
			report.Pct(st.HitRateAt(blocksOf(256<<10))),
			report.Pct(st.HitRateAt(blocksOf(512<<10))),
			report.Pct(st.HitRateAt(blocksOf(1<<20))))
	}
	return tb.Fprint(out)
}

func profilesCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profiles", flag.ContinueOnError)
	dump := fs.String("dump", "", "dump one profile as editable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dump != "" {
		p, err := workload.ProfileByName(*dump)
		if err != nil {
			return err
		}
		return workload.SaveProfile(out, p)
	}
	tb := report.NewTable("built-in app profiles", "name", "kernel share", "user set", "kernel set", "description")
	for _, p := range workload.Profiles() {
		tb.AddRow(p.Name,
			fmt.Sprintf("%.0f%%", p.KernelShare*100),
			fmt.Sprintf("%dKB", p.UserWorkingSet/1024),
			fmt.Sprintf("%dKB", p.KernelWorkingSet/1024),
			p.Description)
	}
	return tb.Fprint(out)
}

func genCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	app := fs.String("app", "browser", "app profile ("+strings.Join(workload.ProfileNames(), ", ")+")")
	profPath := fs.String("profile", "", "custom profile JSON file (overrides -app)")
	n := fs.Int("n", 1_000_000, "number of accesses")
	seed := fs.Uint64("seed", 1, "generator seed")
	outPath := fs.String("o", "", "output file (default stdout)")
	text := fs.Bool("text", false, "write the text format instead of binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast before any profile or file work, matching mcbench and
	// mcsim: a million-record generation into an unwritable path (or a
	// nonsensical count) should die before the first record exists.
	if *n <= 0 {
		return fmt.Errorf("-n %d is not a generatable record count (need >= 1); usage: mctrace gen -app name -n count [-o file]", *n)
	}
	if err := checkWritableFile("-o", *outPath); err != nil {
		return err
	}
	var prof workload.Profile
	var err error
	if *profPath != "" {
		prof, err = workload.LoadProfileFile(*profPath)
	} else {
		prof, err = workload.ProfileByName(*app)
	}
	if err != nil {
		return err
	}

	gen, err := workload.NewGenerator(prof, *seed, workload.PhaseLen(prof, *n))
	if err != nil {
		return err
	}
	src := trace.NewLimitSource(gen, *n)

	if *text {
		var w io.Writer = out
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		written, err := trace.WriteText(w, src)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mctrace: wrote %d text records\n", written)
		return nil
	}

	var tw *trace.Writer
	if *outPath != "" {
		// CreateFile handles transparent gzip for .gz paths.
		w, closer, err := trace.CreateFile(*outPath)
		if err != nil {
			return err
		}
		defer closer.Close()
		tw = w
	} else {
		tw = trace.NewWriter(out)
		defer tw.Flush()
	}
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(a); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mctrace: wrote %d records\n", tw.Count())
	return nil
}

// checkWritableFile proves an output path can actually receive a file
// before any generation starts: its directory must exist and admit a
// probe file (created and removed). An empty path (stdout) passes.
func checkWritableFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("%s: %s is not writable: %w", flagName, path, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

func openTrace(path string) (io.Closer, *trace.Reader, error) {
	r, closer, err := trace.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	return closer, r, nil
}

func infoCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mctrace info <file>")
	}
	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	s := trace.Summarize(r)
	if r.Err() != nil {
		return r.Err()
	}
	tb := report.NewTable("trace "+fs.Arg(0), "metric", "value")
	tb.AddRow("records", fmt.Sprint(s.Records))
	tb.AddRow("instructions", fmt.Sprint(s.Instructions))
	tb.AddRow("kernel share", report.Pct(s.KernelShare()))
	tb.AddRow("write share", report.Pct(s.WriteShare()))
	tb.AddRow("loads", fmt.Sprint(s.ByOp[trace.Load]))
	tb.AddRow("stores", fmt.Sprint(s.ByOp[trace.Store]))
	tb.AddRow("ifetches", fmt.Sprint(s.ByOp[trace.Ifetch]))
	tb.AddRow("address range", fmt.Sprintf("%#x .. %#x", s.MinAddr, s.MaxAddr))
	return tb.Fprint(out)
}

func catCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cat", flag.ContinueOnError)
	n := fs.Int("n", 0, "max records to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("-n %d is negative; usage: mctrace cat [-n count] <file>", *n)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mctrace cat [-n count] <file>")
	}
	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	var src trace.Source = r
	if *n > 0 {
		src = trace.NewLimitSource(r, *n)
	}
	if _, err := trace.WriteText(out, src); err != nil {
		return err
	}
	return r.Err()
}
