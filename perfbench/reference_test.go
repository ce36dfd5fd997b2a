package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"xedsim/internal/faultsim"
)

var update = flag.Bool("update", false, "regenerate reference.json (takes about a minute)")

// referenceSeed seeds the reference campaign; benchmark ops run at small
// seeds, never this one.
const referenceSeed = 0x5eed_0000_0000_0000

// TestReference checks the committed reference covers what the checks look
// up; with -update it regenerates reference.json from the current code.
func TestReference(t *testing.T) {
	if *update {
		writeReference(t)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ref.Campaign.Schemes), len(faultsim.AllSchemes()); got != want {
		t.Errorf("reference has %d campaign schemes, want %d", got, want)
	}
	if ref.Campaign.Trials < 1<<26 {
		t.Errorf("reference campaign of %d trials is too small to band against", ref.Campaign.Trials)
	}
	if got, want := len(ref.Perfsim.Pairs), len(perfsimBenches)*len(perfsimSchemes); got != want {
		t.Errorf("reference has %d perfsim pairs, want %d", got, want)
	}
	if ref.Perfsim.Seed != 1 || ref.Perfsim.InstrPerCore != defaultSizes.InstrPerCore {
		t.Errorf("perfsim reference at seed %d, %d instructions per core; want the defaults", ref.Perfsim.Seed, ref.Perfsim.InstrPerCore)
	}
}

func writeReference(t *testing.T) {
	var ref reference
	const trials = 1 << 28
	rep, err := faultsim.RunCampaign(context.Background(), faultsim.DefaultConfig(), faultsim.AllSchemes(),
		faultsim.CampaignOptions{Trials: trials, Seed: referenceSeed, Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	ref.Campaign.Trials, ref.Campaign.Seed = trials, referenceSeed
	for _, r := range rep.Results {
		ref.Campaign.Schemes = append(ref.Campaign.Schemes, refScheme{Name: r.SchemeName, Failures: r.Failures})
	}

	ref.Perfsim.Seed, ref.Perfsim.InstrPerCore = 1, defaultSizes.InstrPerCore
	p := newPerfsim(t, &env{seed: 1, size: defaultSizes})
	for i := 0; i < len(perfsimBenches)*len(perfsimSchemes); i++ {
		res := p.simulate(i, nil, 0)
		ref.Perfsim.Pairs = append(ref.Perfsim.Pairs, refPair{Workload: res.Workload, Scheme: res.Scheme,
			Cycles: res.Cycles, Reads: res.Reads, Writes: res.Writes, Activates: res.Activates, SumReadLatency: res.SumReadLatency})
	}
	b, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	referenceJSON = b
}

func newPerfsim(t *testing.T, e *env) *perfsimInst {
	t.Helper()
	inst, err := perfsimWorkload.setup(context.Background(), e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*perfsimInst)
}
