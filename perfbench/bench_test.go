package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/memsim"
)

// tinySizes shrink every op so the self-tests run in seconds.
var tinySizes = sizes{
	CampaignTrials: 1 << 14,
	ServiceTrials:  1 << 14,
	FleetDIMMs:     1 << 12,
	InstrPerCore:   20_000,
	GenTrials:      1 << 12,
}

func tinyEnv(t *testing.T, seed uint64, size sizes) *env {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: seed, size: size, ref: ref, dir: t.TempDir(), log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimSpace(p)))
	return len(p), nil
}

// benchmarkJSON is the part of BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// checkMetrics holds a run's metrics to BENCHMARK.json: the same names with
// the same units, every value finite.
func checkMetrics(t *testing.T, got []metric, want map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range got {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %q is not in BENCHMARK.json", m.Name)
		case unit != m.Unit:
			t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %q = %v", m.Name, m.Value)
		case seen[m.Name]:
			t.Errorf("metric %q reported twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("BENCHMARK.json metric %q not reported", name)
		}
	}
}

// TestBenchmarkJSONMatchesWorkloads: BENCHMARK.json gates a subset of the
// workloads, each one the command knows, listed once. The rest still run
// as sections of every traced run, so every per-layer metric is measured.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads, want at least 2", len(bj.Workloads))
	}
	seen := make(map[string]bool)
	for _, w := range bj.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
		if seen[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q twice", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size
// and checks the metrics against BENCHMARK.json and the spans' self times.
func TestWorkloadsTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(t, 7, tinySizes)
			oc, err := measure(ctx, w, e, runLen{n: 4})
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 || oc.attempted != 4 {
				t.Fatalf("untraced run: %d of %d ops failed", oc.failed, oc.attempted)
			}
			checkMetrics(t, oc.metrics, e2e)
			for _, m := range oc.metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}

			oc, secs, err := traceRun(ctx, w, e, runLen{n: 2})
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 {
				t.Fatalf("traced run: %d of %d ops failed", oc.failed, oc.attempted)
			}
			// The canary is added by the command, after the sections.
			oc.metrics = append(oc.metrics, metric{"host.canary_ms", canary(), "ms"})
			checkMetrics(t, oc.metrics, layer)
			for _, m := range oc.metrics {
				// Every timed layer takes time; the coordinator's own merge
				// histogram rounds sub-microsecond merges down to 0.
				timed := m.Unit == "ms" || m.Unit == "us" || m.Unit == "ns"
				if timed && m.Value <= 0 && m.Name != "dist.merge_ms" {
					t.Errorf("per-layer metric %s = %v, want > 0", m.Name, m.Value)
				}
			}
			if len(secs) != len(workloads) || secs[0].Workload != w.name {
				t.Fatalf("traced run has sections %+v, want %s first of %d", secs, w.name, len(workloads))
			}
			for _, s := range secs {
				checkSelfTimes(t, s.Workload, s.Spans)
			}
		})
	}
}

// checkSelfTimes: every self time is non-negative, no longer than its
// span, and the self times of a span's subtree sum to at most its duration.
func checkSelfTimes(t *testing.T, section string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: no spans", section)
	}
	kids := make(map[int64][]int)
	for i, s := range spans {
		if s.SelfNS < 0 || s.SelfNS > s.End-s.Start {
			t.Errorf("%s: span %s self %d ns outside [0, %d]", section, s.Name, s.SelfNS, s.End-s.Start)
		}
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	var subtree func(i int) int64
	subtree = func(i int) int64 {
		total := spans[i].SelfNS
		for _, k := range kids[spans[i].ID] {
			total += subtree(k)
		}
		return total
	}
	for i, s := range spans {
		if got := subtree(i); got > s.End-s.Start {
			t.Errorf("%s: subtree of %s sums %d ns of self time in a %d ns span", section, s.Name, got, s.End-s.Start)
		}
	}
}

func TestSelfTimesClipAndUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // outlives op
		{ID: 5, Parent: 4, Name: "d", Start: 95, End: 120},
	}
	got := map[string]int64{}
	for _, s := range tr.snapshot() {
		got[s.Name] = s.SelfNS
	}
	want := map[string]int64{"op": 100 - 40 - 10, "a": 30, "b": 20, "c": 5, "d": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

// runSabotaged runs ops [0, n) with mutate applied and returns the number
// of failed ops.
func runSabotaged(t *testing.T, w *workload, e *env, n int, mutate func(op int, out any)) int {
	t.Helper()
	ctx := context.Background()
	inst, err := setupOnce(ctx, w, e, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close() //nolint:errcheck
	e.mutate = mutate
	return opLoop(ctx, e, inst, runLen{n: n}, nil, nil).failed
}

func TestSabotageCampaignBand(t *testing.T) {
	e := tinyEnv(t, 3, tinySizes)
	failed := runSabotaged(t, campaignWorkload, e, 2, func(op int, out any) {
		if op == 1 {
			r := &out.(*faultsim.Report).Results[2] // XED
			want := e.ref.Campaign.Schemes[2]
			_, hi := failureBand(want.Failures, e.ref.Campaign.Trials, e.size.CampaignTrials)
			r.Failures = hi + 1
		}
	})
	if failed != 1 {
		t.Fatalf("%d ops failed, want the sabotaged one", failed)
	}
}

func TestSabotageServiceReport(t *testing.T) {
	e := tinyEnv(t, 3, tinySizes)
	failed := runSabotaged(t, serviceWorkload, e, 2, func(op int, out any) {
		if op == 0 {
			out.(*faultsim.Report).Results[1].FailuresByYear[3]++
		}
	})
	if failed != 1 {
		t.Fatalf("%d ops failed, want the sabotaged one", failed)
	}
}

func TestSabotageEDACDump(t *testing.T) {
	e := tinyEnv(t, 3, tinySizes)
	ceLine := regexp.MustCompile(`(?m)^(/sys/devices/system/edac/mc/mc0/ce_count )(\d+)$`)
	failed := runSabotaged(t, fleetWorkload, e, 2, func(op int, out any) {
		if op != 1 {
			return
		}
		o := out.(*fleetOut)
		cfg := fleet.DefaultConfig()
		cfg.DIMMs = e.size.FleetDIMMs
		o.render = func(mcs []fleet.MCCounters) []byte {
			dump := fleet.NewEDACSnapshot(&cfg, mcs).Dump()
			return ceLine.ReplaceAllFunc(dump, func(line []byte) []byte {
				m := ceLine.FindSubmatch(line)
				n, _ := strconv.Atoi(string(m[2]))
				return append(append([]byte{}, m[1]...), strconv.Itoa(n+1)...)
			})
		}
	})
	if failed != 1 {
		t.Fatalf("%d ops failed, want the sabotaged one", failed)
	}
}

// TestSabotageMemsimCycles runs the first two perfsim ops at the reference
// seed and size, so the committed statistics are checked.
func TestSabotageMemsimCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two full-size pairs")
	}
	e := tinyEnv(t, 1, defaultSizes)
	failed := runSabotaged(t, perfsimWorkload, e, 2, func(op int, out any) {
		if op == 1 {
			out.(*memsim.Result).Cycles++
		}
	})
	if failed != 1 {
		t.Fatalf("%d ops failed, want the sabotaged one", failed)
	}
}

// TestFailureBand: the band holds the reference mean at every op size the
// benchmark uses, and rejects a doubled failure rate wherever the expected
// count is large enough to tell.
func TestFailureBand(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{defaultSizes.CampaignTrials, defaultSizes.ServiceTrials, tinySizes.CampaignTrials} {
		for _, s := range ref.Campaign.Schemes {
			mean := float64(s.Failures) / float64(ref.Campaign.Trials) * float64(n)
			lo, hi := failureBand(s.Failures, ref.Campaign.Trials, n)
			if float64(lo) > mean || float64(hi) < mean {
				t.Errorf("n=%d %s: band [%d, %d] misses the mean %.1f", n, s.Name, lo, hi, mean)
			}
			if mean >= 50 && float64(hi) >= 2*mean {
				t.Errorf("n=%d %s: band [%d, %d] admits double the mean %.1f", n, s.Name, lo, hi, mean)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
		{"--workload", "campaign", "extra"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}

// TestScaledTimes: times run while the canary took twice its reference
// time are halved, and a time is scaled by the mean canary around it, not
// by one far away.
func TestScaledTimes(t *testing.T) {
	n := 3*canaryWindow + 4
	times, can := make([]float64, n), make([]float64, n+1)
	for i := range times {
		times[i] = 10
	}
	for i := range can {
		can[i] = 2 * refCanaryMS
	}
	for i, got := range scaledMS(times, can) {
		if math.Abs(got-5) > 1e-9 {
			t.Fatalf("time %d scaled to %v, want 5", i, got)
		}
	}
	can[n] = 20 * refCanaryMS // a slow last canary
	got := scaledMS(times, can)
	if math.Abs(got[0]-5) > 1e-9 {
		t.Errorf("time 0 scaled to %v: a canary %d away moved it", got[0], n)
	}
	// The last time's window holds canaryWindow+2 canaries, one of them slow.
	k := float64(canaryWindow + 2)
	if want := 10 / ((2*(k-1) + 20) / k); math.Abs(got[n-1]-want) > 1e-9 {
		t.Errorf("last time scaled to %v, want %v", got[n-1], want)
	}
}

func TestRunLen(t *testing.T) {
	const d = time.Second
	for _, w := range workloads {
		rl := w.runFor(minOps, d)
		m := max(w.opMultiple, 1)
		if rl.n < minOps || rl.n%m != 0 {
			t.Errorf("%s: at least %d ops, want a multiple of %d no less than %d", w.name, rl.n, m, minOps)
		}
		if rl.done(rl.n-1, 2*d) || rl.done(rl.n, d/2) {
			t.Errorf("%s: stopped before %d ops and %v", w.name, rl.n, d)
		}
		if !rl.done(rl.n, d) {
			t.Errorf("%s: did not stop at %d ops and %v", w.name, rl.n, d)
		}
		if rl.done(rl.n+1, 2*d) != (m == 1) || !rl.done(rl.n+m, 2*d) {
			t.Errorf("%s: a run extended past %d ops must stop on a multiple of %d", w.name, rl.n, m)
		}
	}
	if !(runLen{n: 4}).done(4, 0) {
		t.Error("an untimed loop must stop at its op count")
	}
}
