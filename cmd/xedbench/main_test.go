package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: xedsim/internal/faultsim
cpu: Intel(R) Xeon(R)
BenchmarkTableICampaign/judge/engine=indexed-8   2016  1100 ns/op  7490254 trials/s  12 B/op  3 allocs/op
BenchmarkTableICampaign/judge/engine=indexed-8   2358  1000 ns/op  7181168 trials/s  12 B/op  3 allocs/op
BenchmarkTableICampaign/judge/engine=indexed-8   2092  1200 ns/op  7420544 trials/s  12 B/op  3 allocs/op
BenchmarkTableICampaign/judge/engine=lanes-8     12921  200 ns/op  41814207 trials/s  0 B/op  0 allocs/op
PASS
ok  	xedsim/internal/faultsim	52.1s
`

func TestParseBench(t *testing.T) {
	doc, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "xedsim/internal/faultsim" ||
		doc.CPU != "Intel(R) Xeon(R)" {
		t.Fatalf("preamble not captured: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(doc.Benchmarks))
	}
	idx := doc.Benchmarks[0]
	if idx.Name != "BenchmarkTableICampaign/judge/engine=indexed-8" || idx.Runs != 3 {
		t.Fatalf("indexed aggregation wrong: %+v", idx)
	}
	// Median of {1100, 1000, 1200} is 1100; min/max bound the spread.
	if idx.Median["ns/op"] != 1100 || idx.MinNsOp != 1000 || idx.MaxNsOp != 1200 {
		t.Fatalf("median/min/max wrong: %+v", idx.Median)
	}
	if idx.Median["allocs/op"] != 3 || idx.Median["trials/s"] != 7420544 {
		t.Fatalf("secondary metrics wrong: %+v", idx.Median)
	}
	lanes := doc.Benchmarks[1]
	if lanes.Runs != 1 || lanes.Median["trials/s"] != 41814207 {
		t.Fatalf("lanes aggregation wrong: %+v", lanes)
	}
	if idx.Group != "judge" || lanes.Group != "judge" {
		t.Fatalf("stage groups wrong: %q, %q", idx.Group, lanes.Group)
	}
}

func TestBenchGroup(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkTableICampaign/judge/engine=lanes-8":             "judge",
		"BenchmarkTableICampaign/gen/gen=batch-8":                  "gen",
		"BenchmarkTableICampaign/end2end/engine=lanes/gen=batch-8": "end2end",
		"BenchmarkTableICampaign/end2end/oracle=scalar-indexed-8":  "end2end",
		"BenchmarkTableICampaign/end2end-8":                        "end2end",
		"BenchmarkTableICampaign/gen-8":                            "gen",
		"BenchmarkX-4":                                             "",
		"BenchmarkX":                                               "",
	} {
		if got := benchGroup(name); got != want {
			t.Fatalf("benchGroup(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseBenchEvenCountAndEmpty(t *testing.T) {
	two := `BenchmarkX-4  10  100 ns/op
BenchmarkX-4  10  300 ns/op
`
	doc, err := parseBench(strings.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Benchmarks[0].Median["ns/op"]; got != 200 {
		t.Fatalf("even-count median = %v, want 200", got)
	}

	if _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty bench output accepted; a failed run could write a plausible file")
	}
}
