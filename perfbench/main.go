// Command perfbench is xedsim's end-to-end and per-layer benchmark. Run it
// from the repository root through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer metrics. The last line of standard
// output is the result as one JSON object. README.md describes the
// workloads, the metrics and how to read a trace.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, right after the Go runtime starts.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// provenance records what produced a result.
type provenance struct {
	CPU           string    `json:"cpu"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	Commit        string    `json:"commit"`
	Dirty         string    `json:"dirty"`
	Workload      string    `json:"workload"`
	Seed          uint64    `json:"seed"`
	Seconds       int       `json:"seconds"`
	Trace         int       `json:"trace"`
	Ops           int       `json:"ops"`
	Sizes         sizes     `json:"sizes"`
	CanaryStartMS float64   `json:"canary_start_ms"`
	CanaryEndMS   float64   `json:"canary_end_ms"`
	StartupS      float64   `json:"startup_s,omitempty"`
	SetupS        []float64 `json:"setup_s,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, service, fleet or perfsim")
	seed := fs.Uint64("seed", 1, "base seed; op i runs at seed+i")
	seconds := fs.Int("seconds", 15, "how long the timed ops run (at least 100 ops)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for result records, span files and scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0) {
		err = errors.New("--seconds must be positive, --trace 0 or 1, and no positional arguments")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		fs.Usage()
		return 2
	}
	if err := bench(w, *seed, *seconds, *trace, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(w *workload, seed uint64, seconds, trace int, out string, stdout, stderr io.Writer) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	dir, err := scratchDir(out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, size: defaultSizes, ref: ref, dir: dir, log: stderr}
	prov := newProvenance(w, seed, seconds, trace)
	prov.CanaryStartMS = canary()

	ctx := context.Background()
	d := time.Duration(seconds) * time.Second
	var oc *outcome
	var secs []section
	if trace == 1 {
		// The traced run splits the time between its untraced and traced
		// phases.
		oc, secs, err = traceRun(ctx, w, e, w.runFor(minOps/2, d/2))
	} else {
		oc, err = measure(ctx, w, e, w.runFor(minOps, d))
	}
	if err != nil {
		return err
	}
	prov.CanaryEndMS = canary()
	prov.Ops = oc.attempted
	prov.StartupS, prov.SetupS = oc.startupS, oc.setupS
	if trace == 1 {
		oc.metrics = append(oc.metrics, metric{"host.canary_ms", (prov.CanaryStartMS + prov.CanaryEndMS) / 2, "ms"})
	}

	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricJSON{}}
	for _, m := range oc.metrics {
		res.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
	}
	report(stdout, w, prov, oc, secs)
	if err := writeRecords(out, prov, res, oc.loop, secs); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func newProvenance(w *workload, seed uint64, seconds, trace int) *provenance {
	p := &provenance{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Dirty: "unknown",
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Sizes: defaultSizes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the human-readable part of the output.
func report(wr io.Writer, w *workload, p *provenance, oc *outcome, secs []section) {
	fmt.Fprintf(wr, "perfbench %s: seed %d, %d ops of %s attempted, trace %d\n", w.name, p.Seed, p.Ops, w.unit, p.Trace)
	for _, s := range secs {
		fmt.Fprintf(wr, "section %s (%d untraced + %d traced ops): self time by layer\n", s.Workload, s.Untraced, s.Traced)
		for _, name := range sortedKeys(s.SelfMS) {
			fmt.Fprintf(wr, "  %-40s %12.3f ms\n", name, s.SelfMS[name])
		}
	}
	for _, m := range oc.metrics {
		fmt.Fprintf(wr, "%-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range oc.host {
		fmt.Fprintf(wr, "%-40s %14.6g %s (host time)\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(wr, "%-40s %14.6g ratio (%d of %d ops failed)\n", "error_rate", float64(oc.failed)/float64(oc.attempted), oc.failed, oc.attempted)
	prov, _ := json.Marshal(p)
	fmt.Fprintf(wr, "provenance %s\n", prov)
}

// writeRecords writes the result record (result, provenance and, for an
// untraced run, every op's host latency and the canaries around them, in
// order) and, for a traced run, the spans.
func writeRecords(out string, p *provenance, res result, l *loop, secs []section) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", p.Workload, p.Seed, p.Trace)
	rec := struct {
		Provenance *provenance `json:"provenance"`
		Result     result      `json:"result"`
		OpMS       []float64   `json:"op_ms,omitempty"`
		CanaryMS   []float64   `json:"canary_ms,omitempty"`
	}{Provenance: p, Result: res}
	if l != nil {
		rec.OpMS, rec.CanaryMS = l.latMS, l.canMS
	}
	if err := writeJSON(filepath.Join(out, "results", base+".json"), rec); err != nil {
		return err
	}
	if secs == nil {
		return nil
	}
	return writeJSON(filepath.Join(out, "trace", base+".json"), struct {
		Provenance *provenance `json:"provenance"`
		Sections   []section   `json:"sections"`
	}{p, secs})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
