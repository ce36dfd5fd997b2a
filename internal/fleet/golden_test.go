package fleet

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/fleet.txt from the current code")

// goldenPath pins the fleet determinism promises across releases: the
// SHA-256 of the Summary JSON, of the EDAC dump and of the checkpoint bytes
// of small fixed fleets. A mismatch means the named policy's fault streams,
// its tallies, the EDAC rendering or the checkpoint format moved. An
// intentional change regenerates the file with -update-golden and says so
// in CHANGES.md.
const goldenPath = "testdata/golden/fleet.txt"

// goldenPolicies is the retirement-policy matrix the goldens cover.
var goldenPolicies = []string{"none", "on-first-ce", "threshold:3", "harp"}

// goldenConfig is the fleet every golden run ages under policy: 98 chunks
// of the default 1024 DIMMs, the last one partial, grouped 1024 DIMMs per
// memory controller so the EDAC dump and checkpoint stay small.
func goldenConfig(t *testing.T, policy string) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DIMMs = 100_000
	cfg.DIMMsPerMC = 1024
	pol, err := ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	return cfg
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenRun ages one fleet with a checkpoint and returns the digests of
// its Summary JSON, its EDAC dump and its final checkpoint file.
func goldenRun(t *testing.T, ctx context.Context, cfg Config, opts Options) (summary, edac, ckpt string) {
	t.Helper()
	sum, err := Run(ctx, cfg, opts)
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return sha(sb), sha(NewEDACSnapshot(&cfg, sum.MCs).Dump()), sha(cb)
}

// goldenResumeOpts is the interrupted run's shape: one worker that cancels
// itself after 40 merged chunks, so the partial snapshot is deterministic.
func goldenResumeOpts(path string, cancel context.CancelFunc) Options {
	return Options{Seed: 7, Workers: 1, CheckpointPath: path, OnChunk: func(done, _ int) {
		if done == 40 {
			cancel()
		}
	}}
}

// TestFleetGoldens checks every policy of the matrix at 1 and 4 workers
// (which must agree), plus one on-first-ce run interrupted after 40 chunks
// and resumed, against the committed digests.
func TestFleetGoldens(t *testing.T) {
	got := map[string]string{}
	dir := t.TempDir()
	for _, policy := range goldenPolicies {
		cfg := goldenConfig(t, policy)
		for _, workers := range []int{1, 4} {
			opts := Options{Seed: 7, Workers: workers,
				CheckpointPath: filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", strings.ReplaceAll(policy, ":", "-"), workers))}
			sum, edac, ck := goldenRun(t, context.Background(), cfg, opts)
			if workers == 1 {
				got[policy+"/summary"], got[policy+"/edac"], got[policy+"/checkpoint"] = sum, edac, ck
				continue
			}
			if sum != got[policy+"/summary"] || edac != got[policy+"/edac"] || ck != got[policy+"/checkpoint"] {
				t.Errorf("%s: 4-worker run differs from the 1-worker run", policy)
			}
		}
	}

	cfg := goldenConfig(t, "on-first-ce")
	path := filepath.Join(dir, "resume.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	_, _, got["resume/partial-checkpoint"] = goldenRun(t, ctx, cfg, goldenResumeOpts(path, cancel))
	cancel()
	opts := Options{Seed: 7, Workers: 1, CheckpointPath: path, Resume: true}
	got["resume/summary"], got["resume/edac"], got["resume/checkpoint"] = goldenRun(t, context.Background(), cfg, opts)
	for _, k := range []string{"summary", "edac", "checkpoint"} {
		if got["resume/"+k] != got["on-first-ce/"+k] {
			t.Errorf("resumed run's %s differs from the uninterrupted on-first-ce run", k)
		}
	}

	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for k, g := range got {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (regenerate with -update-golden)", k)
		case g != w:
			t.Errorf("%s moved: digest %s, golden %s", k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden digest no test produces", k)
		}
	}
}

// TestCommittedPartialCheckpointResumes resumes testdata/partial-v1.ckpt, a
// version-1 fleet checkpoint of the golden on-first-ce fleet cancelled
// after 40 chunks, and requires the uninterrupted run's golden digests: the
// loader still reads the v1 format, whatever writes checkpoints today.
func TestCommittedPartialCheckpointResumes(t *testing.T) {
	b, err := os.ReadFile("testdata/partial-v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "partial.ckpt")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(t, "on-first-ce")
	var startDone int
	opts := Options{Seed: 7, Workers: 2, CheckpointPath: path, Resume: true, OnChunk: func(done, _ int) {
		if startDone == 0 {
			startDone = done
		}
	}}
	sum, edac, ck := goldenRun(t, context.Background(), cfg, opts)
	if startDone != 40 {
		t.Errorf("resume started from %d done chunks, the committed checkpoint holds 40", startDone)
	}
	want := readGolden(t)
	for k, g := range map[string]string{"summary": sum, "edac": edac, "checkpoint": ck} {
		if g != want["on-first-ce/"+k] {
			t.Errorf("resumed %s digest %s, golden %s", k, g, want["on-first-ce/"+k])
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		m[k] = strings.TrimSpace(v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeGolden(t *testing.T, m map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 of the Summary JSON, EDAC dump and checkpoint bytes of the fleets in\n")
	b.WriteString("# golden_test.go. Regenerate: go test ./internal/fleet -run TestFleetGoldens -update-golden\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, m[k])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
