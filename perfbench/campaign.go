package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"

	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

var campaignWorkload = &workload{
	name:     "campaign",
	unit:     "trials",
	crossOps: 10,
	setup: func(_ context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error) {
		return &campaignInst{e: e, cfg: faultsim.DefaultConfig(), schemes: faultsim.AllSchemes(),
			reg: reg, vals: make(map[string][]float64)}, nil
	},
}

// campaignInst runs one faultsim.RunCampaign per op with one worker and the
// default engine and generator.
type campaignInst struct {
	e       *env
	cfg     faultsim.Config
	schemes []faultsim.Scheme
	reg     *obs.Registry
	traced  int // traced ops run, for nonempty_frac
	vals    map[string][]float64
}

func (c *campaignInst) opts(i int) faultsim.CampaignOptions {
	return faultsim.CampaignOptions{Trials: c.e.size.CampaignTrials, Seed: c.e.seed + uint64(i), Workers: 1}
}

func (c *campaignInst) op(ctx context.Context, i int, tr *tracer, root int64) (any, error) {
	opts := c.opts(i)
	if tr != nil {
		opts.Metrics = c.reg
		c.traced++
	}
	var rep *faultsim.Report
	_, err := tr.timed("faultsim.RunCampaign", root, i, func() (err error) {
		rep, err = faultsim.RunCampaign(ctx, c.cfg, c.schemes, opts)
		return err
	})
	return rep, err
}

func (c *campaignInst) check(_ context.Context, _ int, out any) error {
	return checkCampaign(c.e.ref, out.(*faultsim.Report), c.e.size.CampaignTrials)
}

func (c *campaignInst) work(int) float64 { return float64(c.e.size.CampaignTrials) }

// probe re-drives op i's chunks through ChunkRunner and Merger (RunCampaign
// is opaque from outside), saves the merged state, and splits generation
// from judging with passes of its own over one stream of trials.
func (c *campaignInst) probe(ctx context.Context, i int, out any, tr *tracer, root int64) error {
	opts := c.opts(i)
	runner, err := faultsim.NewChunkRunner(c.cfg, c.schemes, opts)
	if err != nil {
		return err
	}
	merger, err := faultsim.NewMerger(c.cfg, c.schemes, opts)
	if err != nil {
		return err
	}
	for ch := 0; ch < runner.NumChunks(); ch++ {
		var res *faultsim.ChunkResult
		if _, err := tr.timed("faultsim.ChunkRunner.RunSpan", root, i, func() (err error) {
			res, err = runner.RunSpan(ctx, ch, ch+1)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timed("faultsim.Merger.Merge", root, i, func() error { return merger.Merge(res) }); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(merger.Report(), out) {
		return fmt.Errorf("chunk-by-chunk merge differs from RunCampaign")
	}

	d, err := tr.timed("faultsim.Merger.SnapshotBytes", root, i, func() error {
		_, err := merger.SnapshotBytes()
		return err
	})
	if err != nil {
		return err
	}
	c.add("checkpoint.encode_ms", ms(d))
	path := filepath.Join(c.e.dir, fmt.Sprintf("campaign-%d.ckpt", i))
	if d, err = tr.timed("faultsim.Merger.Save", root, i, func() error { return merger.Save(path) }); err != nil {
		return err
	}
	c.add("checkpoint.save_ms", ms(d))

	return c.genJudge(i, tr, root)
}

// genJudge times generation (TrialSource.NextNonEmpty), indexed judging
// (Evaluator.EvaluateInto) and lane judging (LaneBatch.Add +
// LaneEvaluator.EvaluateBatch) over the same GenTrials trials, batch
// generation (CaptureTraceGen) over as many, and the simrand primitives.
func (c *campaignInst) genJudge(i int, tr *tracer, root int64) error {
	src, err := faultsim.NewTrialSource(&c.cfg)
	if err != nil {
		return err
	}
	rng := simrand.New(c.e.seed + uint64(i))
	var (
		recs    []faultsim.FaultRecord
		offs    = []int{0}
		states  []simrand.State
		covered int
	)
	gen, _ := tr.timed("faultsim.TrialSource.NextNonEmpty", root, i, func() error {
		var buf []faultsim.FaultRecord
		for covered < c.e.size.GenTrials {
			states = append(states, rng.State())
			var skipped int
			skipped, buf = src.NextNonEmpty(rng, buf)
			covered += skipped + 1
			recs = append(recs, buf...)
			offs = append(offs, len(recs))
		}
		return nil
	})
	trials := len(offs) - 1
	trial := func(t int) []faultsim.FaultRecord { return recs[offs[t]:offs[t+1]] }

	ev := faultsim.NewEvaluator(&c.cfg, c.schemes)
	judge, _ := tr.timed("faultsim.Evaluator.EvaluateInto", root, i, func() error {
		var outs []faultsim.TrialOutcome
		for t := 0; t < trials; t++ {
			outs = ev.EvaluateInto(trial(t), outs)
		}
		return nil
	})

	lv := faultsim.NewLaneEvaluator(faultsim.NewEvaluator(&c.cfg, c.schemes))
	lv.SetCounters(c.reg.Counter("campaign.lane_batches"), c.reg.Counter("campaign.lane_probes"))
	lanes, _ := tr.timed("faultsim.LaneEvaluator.EvaluateBatch", root, i, func() error {
		var batch faultsim.LaneBatch
		for t := 0; t < trials; t++ {
			batch.Add(t, states[t], trial(t))
			if batch.Lanes() == faultsim.LaneWidth || t == trials-1 {
				lv.EvaluateBatch(&batch)
				batch.Reset()
			}
		}
		return nil
	})

	genBatch, err := tr.timed("faultsim.CaptureTraceGen[batch]", root, i, func() error {
		_, err := faultsim.CaptureTraceGen(c.cfg, c.e.size.GenTrials, c.e.seed+uint64(i), faultsim.GenBatch)
		return err
	})
	if err != nil {
		return err
	}

	c.primitives(i, tr, root, src.Mean())
	mtrials := float64(covered) / 1e6
	c.add("faultsim.gen_ms_per_mtrial", ms(gen)/mtrials)
	c.add("faultsim.judge_indexed_ms_per_mtrial", ms(judge)/mtrials)
	c.add("faultsim.judge_lanes_ms_per_mtrial", ms(lanes)/mtrials)
	c.add("faultsim.gen_batch_ms_per_mtrial", ms(genBatch)/(float64(c.e.size.GenTrials)/1e6))
	return nil
}

// primitives times the simrand primitives generation rests on, at the
// trial source's arrival mean.
func (c *campaignInst) primitives(i int, tr *tracer, root int64, mean float64) {
	rng := simrand.New(c.e.seed + uint64(i))
	ps := simrand.NewPoissonSampler(mean)
	const skips = 1 << 16
	d, _ := tr.timed("simrand.PoissonSampler.SkipZeros", root, i, func() error {
		for k := 0; k < skips; k++ {
			skipSink += ps.SkipZeros(rng)
		}
		return nil
	})
	c.add("simrand.skipzeros_ns", float64(d.Nanoseconds())/skips)

	words := make([]uint64, 4096)
	const fills = 64
	d, _ = tr.timed("simrand.Source.FillUint64", root, i, func() error {
		for k := 0; k < fills; k++ {
			rng.FillUint64(words)
		}
		return nil
	})
	c.add("simrand.fill_ns_per_word", float64(d.Nanoseconds())/float64(fills*len(words)))
}

// skipSink keeps the SkipZeros loop from being optimised away.
var skipSink int

func (c *campaignInst) add(name string, v float64) { c.vals[name] = append(c.vals[name], v) }

func (c *campaignInst) layers(spans []span, reg *obs.Registry) []metric {
	snap := reg.Snapshot()
	evaluated := float64(snap.Counters["campaign.trials_evaluated"])
	probes, batches := float64(snap.Counters["campaign.lane_probes"]), float64(snap.Counters["campaign.lane_batches"])
	return []metric{
		{"simrand.skipzeros_ns", median(c.vals["simrand.skipzeros_ns"]), "ns"},
		{"simrand.fill_ns_per_word", median(c.vals["simrand.fill_ns_per_word"]), "ns"},
		{"faultsim.gen_ms_per_mtrial", median(c.vals["faultsim.gen_ms_per_mtrial"]), "ms"},
		{"faultsim.gen_batch_ms_per_mtrial", median(c.vals["faultsim.gen_batch_ms_per_mtrial"]), "ms"},
		{"faultsim.judge_indexed_ms_per_mtrial", median(c.vals["faultsim.judge_indexed_ms_per_mtrial"]), "ms"},
		{"faultsim.judge_lanes_ms_per_mtrial", median(c.vals["faultsim.judge_lanes_ms_per_mtrial"]), "ms"},
		{"faultsim.chunk_ms", median(durationsMS(spans, "faultsim.ChunkRunner.RunSpan")), "ms"},
		{"faultsim.merge_us", 1e3 * median(durationsMS(spans, "faultsim.Merger.Merge")), "us"},
		{"faultsim.nonempty_frac", evaluated / (float64(c.traced) * float64(c.e.size.CampaignTrials)), "ratio"},
		{"faultsim.lane_probe_frac", probes / (faultsim.LaneWidth * batches), "ratio"},
		{"checkpoint.encode_ms", median(c.vals["checkpoint.encode_ms"]), "ms"},
		{"checkpoint.save_ms", median(c.vals["checkpoint.save_ms"]), "ms"},
	}
}

func (c *campaignInst) close() error { return nil }
