package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"xedsim/internal/memsim"
	"xedsim/internal/obs"
)

var perfsimWorkload = &workload{
	name:       "perfsim",
	unit:       "instructions",
	opMultiple: len(perfsimBenches) * len(perfsimSchemes),
	crossOps:   2 * len(perfsimBenches) * len(perfsimSchemes),
	setup: func(_ context.Context, e *env, _ *tracer, _ *obs.Registry) (instance, error) {
		p := &perfsimInst{e: e, pairMS: make(map[string][]float64)}
		for _, name := range perfsimBenches {
			w, ok := memsim.WorkloadByName(name)
			if !ok {
				return nil, fmt.Errorf("memsim has no workload %q", name)
			}
			p.benches = append(p.benches, w)
		}
		return p, nil
	},
}

// perfsimBenches takes one workload from each suite (SPEC2006, PARSEC,
// BioBench, commercial), spanning low to high memory intensity.
var perfsimBenches = []string{"mcf", "stream", "mummer", "comm2"}

// perfsimSchemes are the five Figure 11 schemes with their metric names.
var perfsimSchemes = []struct {
	slug string
	cfg  func() memsim.SchemeConfig
}{
	{"secded", memsim.SECDEDScheme},
	{"xed", memsim.XEDScheme},
	{"chipkill", memsim.ChipkillScheme},
	{"xed_chipkill", memsim.XEDChipkillScheme},
	{"double_chipkill", memsim.DoubleChipkillScheme},
}

// perfsimInst runs one memsim simulation per op. Op i runs benchmark
// i mod 4 under scheme i mod 5, so any 20 consecutive ops cover all 20
// pairs once and any 5 cover every scheme.
type perfsimInst struct {
	e       *env
	benches []memsim.Workload

	pairMS                             map[string][]float64
	runNS, cycles, reads, writes, acts int64
	sumReadLatency                     int64
}

func mod(i, n int) int { return (i%n + n) % n }

func (p *perfsimInst) config(i int) (memsim.Config, string) {
	s := perfsimSchemes[mod(i, len(perfsimSchemes))]
	cfg := memsim.DefaultConfig(p.benches[mod(i, len(p.benches))], s.cfg())
	cfg.InstrPerCore = p.e.size.InstrPerCore
	cfg.Seed = p.e.seed + uint64(i)
	return cfg, s.slug
}

func (p *perfsimInst) simulate(i int, tr *tracer, root int64) *memsim.Result {
	cfg, slug := p.config(i)
	var sim *memsim.Simulator
	var res memsim.Result
	build, _ := tr.timed("memsim.New", root, i, func() error {
		sim = memsim.New(cfg)
		return nil
	})
	run, _ := tr.timed("memsim.Run", root, i, func() error {
		res = sim.Run()
		return nil
	})
	if tr != nil {
		p.pairMS[slug] = append(p.pairMS[slug], ms(build+run))
		p.runNS += int64(run / time.Nanosecond)
		p.cycles += res.Cycles
		p.reads += res.Reads
		p.writes += res.Writes
		p.acts += res.Activates
		p.sumReadLatency += res.SumReadLatency
	}
	return &res
}

func (p *perfsimInst) op(_ context.Context, i int, tr *tracer, root int64) (any, error) {
	return p.simulate(i, tr, root), nil
}

// check holds every op to its instruction count and, at the reference
// seed and size, its first 20 ops to the committed statistics; op 0 is
// also re-run and must reproduce its Result exactly.
func (p *perfsimInst) check(_ context.Context, i int, out any) error {
	res := out.(*memsim.Result)
	cfg, _ := p.config(i)
	var want *refPair
	if ref := &p.e.ref.Perfsim; p.e.seed == ref.Seed && cfg.InstrPerCore == ref.InstrPerCore && i >= 0 && i < len(ref.Pairs) {
		want = &ref.Pairs[i]
	}
	if err := checkPerfsim(&cfg, res, want); err != nil {
		return err
	}
	if i == 0 {
		if again := p.simulate(0, nil, 0); !reflect.DeepEqual(again, res) {
			return fmt.Errorf("re-running %s/%s gave a different Result", res.Workload, res.Scheme)
		}
	}
	return nil
}

func (p *perfsimInst) work(i int) float64 {
	cfg, _ := p.config(i)
	return float64(int64(cfg.Cores) * cfg.InstrPerCore)
}

func (p *perfsimInst) probe(context.Context, int, any, *tracer, int64) error { return nil }

func (p *perfsimInst) layers([]span, *obs.Registry) []metric {
	out := []metric{{"memsim.host_ns_per_cycle", float64(p.runNS) / float64(p.cycles), "ns"}}
	for _, s := range perfsimSchemes {
		out = append(out, metric{"memsim.pair_ms." + s.slug, median(p.pairMS[s.slug]), "ms"})
	}
	return append(out,
		metric{"memsim.cycles", float64(p.cycles), "cycles"},
		metric{"memsim.reads", float64(p.reads), "count"},
		metric{"memsim.writes", float64(p.writes), "count"},
		metric{"memsim.activates", float64(p.acts), "count"},
		metric{"memsim.avg_read_latency_cycles", float64(p.sumReadLatency) / float64(p.reads), "cycles"},
	)
}

func (p *perfsimInst) close() error { return nil }
