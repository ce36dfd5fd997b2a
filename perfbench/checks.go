package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"

	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/memsim"
)

// reference holds the expected outputs committed with the benchmark
// (reference.json; regenerate with `go test -run TestReference -update`).
type reference struct {
	// Campaign is one large local campaign of faultsim.DefaultConfig()
	// over faultsim.AllSchemes(), run at a seed no benchmark op uses.
	Campaign struct {
		Trials  uint64      `json:"trials"`
		Seed    uint64      `json:"seed"`
		Schemes []refScheme `json:"schemes"`
	} `json:"campaign"`
	// Perfsim pins the simulated statistics of the perfsim workload's
	// first len(Pairs) ops at Seed and InstrPerCore: one of each pair.
	Perfsim struct {
		Seed         uint64    `json:"seed"`
		InstrPerCore int64     `json:"instr_per_core"`
		Pairs        []refPair `json:"pairs"`
	} `json:"perfsim"`
}

type refScheme struct {
	Name     string `json:"name"`
	Failures uint64 `json:"failures"`
}

type refPair struct {
	Workload       string `json:"workload"`
	Scheme         string `json:"scheme"`
	Cycles         int64  `json:"cycles"`
	Reads          int64  `json:"reads"`
	Writes         int64  `json:"writes"`
	Activates      int64  `json:"activates"`
	SumReadLatency int64  `json:"sum_read_latency"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// bandZ sets the failure-count band: each tail holds about 5e-10, so a
// correct scheme's count falls outside by chance with probability about
// 1e-9 per op, far inside the 1e-6 per scheme the band is allowed, and a
// stream change that keeps the distributions exact cannot trip it.
const bandZ = 6.1

// failureBand returns the [lo, hi] failure counts a correct campaign of n
// trials stays within, given the reference count kRef of nRef trials. The
// band covers both the op's own binomial spread and the reference's
// estimation error. Small means use exact Poisson tails (heavier than the
// binomial's, so conservative); large ones the normal approximation.
func failureBand(kRef, nRef uint64, n int) (lo, hi uint64) {
	p := float64(kRef) / float64(nRef)
	sdRef := math.Sqrt(p * (1 - p) / float64(nRef))
	pLo := math.Max(0, p-bandZ*sdRef)
	pHi := math.Min(1, p+bandZ*sdRef+bandZ*bandZ/float64(nRef))
	lamLo, lamHi := pLo*float64(n), pHi*float64(n)
	if lamHi >= 2000 {
		l := lamLo - bandZ*math.Sqrt(lamLo*(1-pLo))
		h := lamHi + bandZ*math.Sqrt(lamHi*(1-pHi))
		return uint64(math.Max(0, math.Floor(l))), uint64(math.Min(float64(n), math.Ceil(h)))
	}
	alpha := math.Erfc(bandZ/math.Sqrt2) / 2
	// lo: the smallest k with P(K <= k) > alpha under the low mean.
	for k, cdf := range poissonCDFs(lamLo) {
		if cdf > alpha {
			lo = uint64(k)
			break
		}
	}
	// hi: the smallest k with P(K > k) <= alpha under the high mean.
	for k, cdf := range poissonCDFs(lamHi) {
		if 1-cdf <= alpha {
			hi = uint64(k)
			break
		}
	}
	return lo, hi
}

// bandKey and bands memoise failureBand per scheme and op size.
type bandKey struct {
	scheme int
	n      int
}

var (
	bandsMu sync.Mutex
	bands   = map[bandKey][2]uint64{}
)

func (ref *reference) band(scheme, n int) (lo, hi uint64) {
	bandsMu.Lock()
	defer bandsMu.Unlock()
	k := bandKey{scheme, n}
	b, ok := bands[k]
	if !ok {
		b[0], b[1] = failureBand(ref.Campaign.Schemes[scheme].Failures, ref.Campaign.Trials, n)
		bands[k] = b
	}
	return b[0], b[1]
}

// checkCampaign checks a Report of `trials` trials of the default campaign:
// every trial tallied, none voided, and each scheme's failure count inside
// its band around the committed reference.
func checkCampaign(ref *reference, rep *faultsim.Report, trials int) error {
	if rep == nil {
		return fmt.Errorf("nil report")
	}
	if rep.Requested != uint64(trials) || rep.Trials != uint64(trials) {
		return fmt.Errorf("report covers %d of %d requested trials, want %d", rep.Trials, rep.Requested, trials)
	}
	if len(rep.TrialErrors) != 0 {
		return fmt.Errorf("%d trials voided: %v", len(rep.TrialErrors), &rep.TrialErrors[0])
	}
	want := ref.Campaign.Schemes
	if len(rep.Results) != len(want) {
		return fmt.Errorf("report has %d schemes, want %d", len(rep.Results), len(want))
	}
	for i, r := range rep.Results {
		if r.SchemeName != want[i].Name {
			return fmt.Errorf("scheme %d is %q, want %q", i, r.SchemeName, want[i].Name)
		}
		if r.Trials != uint64(trials) {
			return fmt.Errorf("%s tallied %d trials, want %d", r.SchemeName, r.Trials, trials)
		}
		lo, hi := ref.band(i, trials)
		if r.Failures < lo || r.Failures > hi {
			return fmt.Errorf("%s: %d failures in %d trials, outside the reference band [%d, %d]",
				r.SchemeName, r.Failures, trials, lo, hi)
		}
	}
	return nil
}

// checkSameReport checks a service Report against the local RunCampaign
// of the same spec: the service promises bit-identical results.
func checkSameReport(service, local *faultsim.Report) error {
	if !reflect.DeepEqual(service, local) {
		return fmt.Errorf("service report differs from the local campaign of the same spec")
	}
	return nil
}

// edacBlock is how many controllers one op's EDAC round trip covers.
// Rendering and parsing all 32768 controllers of a 2^18-DIMM fleet takes
// about three times as long as the op itself; a block keeps the check to a
// tenth of the op, and rotating the block with the op index covers every
// controller once every 32 ops.
const edacBlock = 1024

// checkFleet checks fleet op i: every DIMM aged, the per-MC counters sum
// to the fleet tallies, and the EDAC dump of controller block i (modulo
// the block count), rendered by render, parses back to exactly those
// counters.
func checkFleet(cfg *fleet.Config, i int, sum *fleet.Summary, render func([]fleet.MCCounters) []byte) error {
	if !sum.Complete || sum.Tally.DIMMs != uint64(cfg.DIMMs) {
		return fmt.Errorf("aged %d of %d DIMMs (complete=%v)", sum.Tally.DIMMs, cfg.DIMMs, sum.Complete)
	}
	blocks := (len(sum.MCs) + edacBlock - 1) / edacBlock
	lo := mod(i, blocks) * edacBlock
	mcs := sum.MCs[lo:min(lo+edacBlock, len(sum.MCs))]
	snap, err := fleet.ParseEDACDump(render(mcs))
	if err != nil {
		return fmt.Errorf("EDAC dump of mc%d..: %w", lo, err)
	}
	if len(snap.MCs) != len(mcs) {
		return fmt.Errorf("EDAC dump of mc%d.. has %d controllers, want %d", lo, len(snap.MCs), len(mcs))
	}
	for k, c := range mcs {
		if snap.MCs[k].Counters != c {
			return fmt.Errorf("EDAC dump mc%d counters %+v, run has %+v", lo+k, snap.MCs[k].Counters, c)
		}
	}
	var total fleet.MCCounters
	for _, c := range sum.MCs {
		total.CE += c.CE
		total.CENoInfo += c.CENoInfo
		total.UE += c.UE
		total.UENoInfo += c.UENoInfo
	}
	t := sum.Tally
	if want := (fleet.MCCounters{CE: t.CEs, CENoInfo: t.CENoInfo, UE: t.UEs, UENoInfo: t.UENoInfo}); total != want {
		return fmt.Errorf("EDAC counters sum to %+v, fleet tally has %+v", total, want)
	}
	return nil
}

// checkPerfsim checks one simulated pair: every core retired its
// instructions, and where a committed reference exists, the simulated
// statistics match it exactly.
func checkPerfsim(cfg *memsim.Config, res *memsim.Result, want *refPair) error {
	if n := int64(cfg.Cores) * cfg.InstrPerCore; res.Instructions != n {
		return fmt.Errorf("%s/%s retired %d instructions, want %d", res.Workload, res.Scheme, res.Instructions, n)
	}
	if want == nil {
		return nil
	}
	got := refPair{Workload: res.Workload, Scheme: res.Scheme, Cycles: res.Cycles, Reads: res.Reads,
		Writes: res.Writes, Activates: res.Activates, SumReadLatency: res.SumReadLatency}
	if got != *want {
		return fmt.Errorf("simulated statistics %+v differ from the reference %+v", got, *want)
	}
	return nil
}
