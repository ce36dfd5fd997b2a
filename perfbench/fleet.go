package main

import (
	"context"
	"fmt"
	"reflect"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/fleet"
	"xedsim/internal/infer"
	"xedsim/internal/obs"
)

var fleetWorkload = &workload{
	name:     "fleet",
	unit:     "DIMMs",
	crossOps: 10,
	setup: func(_ context.Context, e *env, _ *tracer, _ *obs.Registry) (instance, error) {
		cfg := fleet.DefaultConfig()
		cfg.DIMMs = e.size.FleetDIMMs
		cfg.Policy = fleet.Policy{Kind: fleet.PolicyHARP}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &fleetInst{e: e, cfg: cfg}, nil
	},
}

// fleetInst runs one fleet.Run per op with one worker.
type fleetInst struct {
	e         *env
	cfg       fleet.Config
	profileUS []float64
}

// fleetOut is one op's output: the summary, and how the check renders EDAC
// dumps from its counters (nil: NewEDACSnapshot(...).Dump(); the sabotage
// tests substitute a corrupting renderer).
type fleetOut struct {
	sum    *fleet.Summary
	render func(mcs []fleet.MCCounters) []byte
}

func (f *fleetInst) run(ctx context.Context, i int, cfg fleet.Config, tr *tracer, root int64) (*fleet.Summary, error) {
	opts := fleet.Options{Seed: f.e.seed + uint64(i), Workers: 1}
	var sum *fleet.Summary
	_, err := tr.timed("fleet.Run["+cfg.Policy.String()+"]", root, i, func() (err error) {
		sum, err = fleet.Run(ctx, cfg, opts)
		return err
	})
	return sum, err
}

func (f *fleetInst) op(ctx context.Context, i int, tr *tracer, root int64) (any, error) {
	sum, err := f.run(ctx, i, f.cfg, tr, root)
	return &fleetOut{sum: sum}, err
}

func (f *fleetInst) check(_ context.Context, i int, out any) error {
	o := out.(*fleetOut)
	render := o.render
	if render == nil {
		render = func(mcs []fleet.MCCounters) []byte { return fleet.NewEDACSnapshot(&f.cfg, mcs).Dump() }
	}
	return checkFleet(&f.cfg, i, o.sum, render)
}

func (f *fleetInst) work(int) float64 { return float64(f.cfg.DIMMs) }

// probe ages the same fleet without retirement (fault streams are
// policy-invariant, so the time difference is the policy's share) and
// times one HARP profiling pass on a chip with one planted fault.
func (f *fleetInst) probe(ctx context.Context, i int, out any, tr *tracer, root int64) error {
	cfg := f.cfg
	cfg.Policy = fleet.Policy{Kind: fleet.PolicyNone}
	none, err := f.run(ctx, i, cfg, tr, root)
	if err != nil {
		return err
	}
	harp := out.(*fleetOut).sum
	if none.Tally.Faults != harp.Tally.Faults || none.Tally.Arrivals != harp.Tally.Arrivals {
		return fmt.Errorf("fault streams differ between policies none and harp")
	}
	return f.profile(i, tr, root)
}

// profileReps repeats the profiling pass to lift it well above timer
// resolution.
const profileReps = 64

// profile runs infer.ProfileChip over four words of one row, the shape of
// the fleet's row-fault profiling, with a permanent two-bit fault planted
// in one of them; only that word may be predicted uncorrectable.
func (f *fleetInst) profile(i int, tr *tracer, root int64) error {
	chip := dram.NewChip(f.cfg.Geom, ecc.NewCRC8ATM())
	bad := dram.WordAddr{Bank: 3, Row: 1000, Col: 17}
	chip.InjectFault(dram.Fault{Gran: dram.GranWord, Bank: bad.Bank, Row: bad.Row, Col: bad.Col, BitMask: 0b1001 << 20})
	addrs := []dram.WordAddr{{Bank: 3, Row: 1000, Col: 0}, bad, {Bank: 3, Row: 1000, Col: 64}, {Bank: 3, Row: 1000, Col: 127}}
	var prof *infer.Profile
	d, _ := tr.timed("infer.ProfileChip", root, i, func() error {
		for k := 0; k < profileReps; k++ {
			prof = infer.ProfileChip(chip, addrs, infer.HARPOptions{Rounds: 2, Seed: f.e.seed + uint64(i*profileReps+k)})
		}
		return nil
	})
	f.profileUS = append(f.profileUS, 1e3*ms(d)/profileReps)
	if got := prof.PredictUncorrectable(); !reflect.DeepEqual(got, []dram.WordAddr{bad}) {
		return fmt.Errorf("HARP profile predicts %v uncorrectable, planted %v", got, bad)
	}
	return nil
}

func (f *fleetInst) layers(spans []span, _ *obs.Registry) []metric {
	mdimms := float64(f.cfg.DIMMs) / 1e6
	return []metric{
		{"fleet.none_ms_per_mdimm", median(durationsMS(spans, "fleet.Run[none]")) / mdimms, "ms"},
		{"fleet.harp_ms_per_mdimm", median(durationsMS(spans, "fleet.Run[harp]")) / mdimms, "ms"},
		{"infer.profile_us", median(f.profileUS), "us"},
	}
}

func (f *fleetInst) close() error { return nil }
