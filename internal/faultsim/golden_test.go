package faultsim

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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/campaign.txt from the current code")

// goldenPath pins the campaign determinism promises across releases: the
// SHA-256 of the Report JSON and of the canonical checkpoint bytes of small
// fixed campaigns. A mismatch means the named config's trial stream, its
// tallies or the checkpoint format moved. An intentional stream change
// regenerates the file with -update-golden and says so in CHANGES.md.
const goldenPath = "testdata/golden/campaign.txt"

// goldenConfigs is the config matrix the goldens cover; every campaign runs
// all six paper schemes.
func goldenConfigs(t *testing.T) []struct {
	name string
	cfg  Config
} {
	def := DefaultConfig()
	aging := DefaultConfig()
	aging.Aging = BathtubAging()
	ranks := DefaultConfig()
	ranks.RanksPerChannel = 4
	hsiao := DefaultConfig()
	code, err := ParseOnDieCode("hsiao")
	if err != nil {
		t.Fatal(err)
	}
	hsiao.SilentWordFraction = SilentWordFractionFor(code, 20_000, 3)
	return []struct {
		name string
		cfg  Config
	}{{"default", def}, {"aging", aging}, {"ranks4", ranks}, {"ondie-hsiao", hsiao}}
}

// goldenOpts is the campaign shape every golden run shares: 98 chunks, the
// last one partial.
func goldenOpts() CampaignOptions {
	return CampaignOptions{Trials: 400_000, Seed: 7}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenRun runs one campaign with a checkpoint and returns the digests of
// its Report JSON and its final checkpoint file.
func goldenRun(t *testing.T, ctx context.Context, cfg Config, opts CampaignOptions) (report, ckpt string) {
	t.Helper()
	rep, err := RunCampaign(ctx, cfg, AllSchemes(), opts)
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return sha(rb), sha(cb)
}

// TestCampaignGoldens checks every config of the matrix at 1 and 4
// workers (which must agree), plus one run interrupted after 40 chunks and
// resumed, against the committed digests.
func TestCampaignGoldens(t *testing.T) {
	got := map[string]string{}
	dir := t.TempDir()
	for _, gc := range goldenConfigs(t) {
		for _, workers := range []int{1, 4} {
			opts := goldenOpts()
			opts.Workers = workers
			opts.CheckpointPath = filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", gc.name, workers))
			rep, ck := goldenRun(t, context.Background(), gc.cfg, opts)
			if workers == 1 {
				got[gc.name+"/report"], got[gc.name+"/checkpoint"] = rep, ck
				continue
			}
			if rep != got[gc.name+"/report"] || ck != got[gc.name+"/checkpoint"] {
				t.Errorf("%s: 4-worker run differs from the 1-worker run", gc.name)
			}
		}
	}

	// Interrupted and resumed: one worker cancels itself after 40 merged
	// chunks, so the partial snapshot is deterministic too.
	cfg := DefaultConfig()
	opts := goldenOpts()
	opts.Workers = 1
	opts.CheckpointPath = filepath.Join(dir, "resume.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts.OnChunk = func(done, _ int) {
		if done == 40 {
			cancel()
		}
	}
	_, got["resume/partial-checkpoint"] = goldenRun(t, ctx, cfg, opts)
	cancel()
	opts.OnChunk = nil
	opts.Resume = true
	got["resume/report"], got["resume/checkpoint"] = goldenRun(t, context.Background(), cfg, opts)
	if got["resume/report"] != got["default/report"] || got["resume/checkpoint"] != got["default/checkpoint"] {
		t.Error("resumed run differs from the uninterrupted default run")
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
	b.WriteString("# SHA-256 of the Report JSON and checkpoint bytes of the campaigns in\n")
	b.WriteString("# golden_test.go. Regenerate: go test ./internal/faultsim -run TestCampaignGoldens -update-golden\n")
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

// TestCommittedPartialCheckpointResumes resumes testdata/partial-v1.ckpt, a
// version-1 campaign checkpoint of the golden default campaign cancelled
// after 40 chunks, and requires the uninterrupted run's golden digests: the
// loader still reads the v1 format, whatever writes checkpoints today.
func TestCommittedPartialCheckpointResumes(t *testing.T) {
	b, err := os.ReadFile("testdata/partial-v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenOpts()
	opts.Workers = 2
	opts.Resume = true
	opts.CheckpointPath = filepath.Join(t.TempDir(), "partial.ckpt")
	if err := os.WriteFile(opts.CheckpointPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var startDone int
	opts.OnChunk = func(done, _ int) {
		if startDone == 0 {
			startDone = done
		}
	}
	rep, ck := goldenRun(t, context.Background(), DefaultConfig(), opts)
	if startDone != 40 {
		t.Errorf("resume started from %d done chunks, the committed checkpoint holds 40", startDone)
	}
	want := readGolden(t)
	if rep != want["default/report"] || ck != want["default/checkpoint"] {
		t.Errorf("resumed digests report %s checkpoint %s, golden %s %s",
			rep, ck, want["default/report"], want["default/checkpoint"])
	}
}
