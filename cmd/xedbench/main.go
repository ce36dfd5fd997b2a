// Command xedbench converts `go test -bench` output into a stable JSON
// document so the performance trajectory of the evaluation engines is
// machine-readable across PRs (BENCH_pr6.json et seq.).
//
// It reads benchmark text from stdin, groups repeated runs of the same
// benchmark (-count=N), and emits per-benchmark medians — the median, not
// the mean, because shared CI machines produce heavy-tailed noise that a
// single slow run would otherwise smear across the whole record.
//
// Usage:
//
//	go test -run='^$' -bench Campaign -benchmem -count=6 ./... | xedbench -out BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xedbench:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xedbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "xedbench:", err)
		os.Exit(1)
	}
}

// Doc is the exported JSON shape. Benchmarks preserve first-seen order so
// diffs between PR snapshots stay readable.
type Doc struct {
	// Goos, Goarch, Pkg and CPU are copied from the go test preamble when
	// present. CPU names the host model, so a trajectory can tell a
	// regression from a machine change.
	Goos       string       `json:"goos,omitempty"`
	Goarch     string       `json:"goarch,omitempty"`
	Pkg        string       `json:"pkg,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	Benchmarks []*Benchmark `json:"benchmarks"`
}

// Benchmark aggregates all -count runs of one benchmark name.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -N GOMAXPROCS suffix, e.g.
	// "BenchmarkTableICampaign/judge/engine=lanes-8".
	Name string `json:"name"`
	// Group is the first sub-benchmark path component ("judge", "gen",
	// "end2end", ...), letting consumers split a pipeline benchmark into
	// its stages without re-parsing Name. Empty for flat benchmarks.
	Group string `json:"group,omitempty"`
	// Runs is the number of repetitions aggregated.
	Runs int `json:"runs"`
	// Median maps metric unit → median value across runs. Units are as
	// printed by the testing package: "ns/op", "B/op", "allocs/op", and
	// any ReportMetric extras such as "trials/s".
	Median map[string]float64 `json:"median"`
	// Min and Max bound the observed spread for the primary ns/op metric,
	// recording the noise floor alongside the median.
	MinNsOp float64 `json:"min_ns_op,omitempty"`
	MaxNsOp float64 `json:"max_ns_op,omitempty"`

	samples map[string][]float64
}

// parseBench consumes `go test -bench` text. Unrecognised lines (test
// chatter, PASS/ok trailers) are skipped; having zero benchmark lines is
// an error so an empty or failed bench run cannot write a plausible file.
func parseBench(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	byName := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var rest string
		switch {
		case scanPrefix(line, "goos: ", &rest):
			doc.Goos = rest
		case scanPrefix(line, "goarch: ", &rest):
			doc.Goarch = rest
		case scanPrefix(line, "pkg: ", &rest):
			doc.Pkg = rest
		case scanPrefix(line, "cpu: ", &rest):
			doc.CPU = rest
		case scanPrefix(line, "Benchmark", &rest):
			name, metrics, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b := byName[name]
			if b == nil {
				b = &Benchmark{Name: name, Group: benchGroup(name), samples: map[string][]float64{}}
				byName[name] = b
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
			b.Runs++
			for unit, v := range metrics {
				b.samples[unit] = append(b.samples[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input")
	}
	for _, b := range doc.Benchmarks {
		b.Median = map[string]float64{}
		for unit, vs := range b.samples {
			b.Median[unit] = median(vs)
		}
		if ns := b.samples["ns/op"]; len(ns) > 0 {
			b.MinNsOp, b.MaxNsOp = minMax(ns)
		}
	}
	return doc, nil
}

// benchGroup extracts the first sub-benchmark path component:
// "BenchmarkTableICampaign/gen/gen=batch-8" → "gen". Flat benchmark names
// (no "/") have no group. A trailing "-N" GOMAXPROCS suffix is stripped
// only when the group is the final component.
func benchGroup(name string) string {
	start := -1
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			if start >= 0 {
				return name[start:i]
			}
			start = i + 1
		}
	}
	if start < 0 {
		return ""
	}
	group := name[start:]
	for i := len(group) - 1; i > 0; i-- {
		if group[i] == '-' {
			return group[:i]
		}
	}
	return group
}

// parseBenchLine splits one "BenchmarkX-8  123  456 ns/op  7 B/op ..."
// line into its name and unit→value pairs.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := splitFields(line)
	// Minimum shape: name, iteration count, value, unit.
	if len(fields) < 4 {
		return "", nil, false
	}
	name := fields[0]
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' || s[i] == '\t' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

func scanPrefix(line, prefix string, rest *string) bool {
	if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
		*rest = line[len(prefix):]
		return true
	}
	return false
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	// Insertion sort: run counts are single digits.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
