package faultsim

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"xedsim/internal/simrand"
)

// benchStream captures the trial stream a Table I campaign actually
// judges: the generator's skip-sampling discards empty trials before the
// evaluator sees them, so the judging benchmarks replay the same
// campaign-filtered distribution (about one record per trial at stock
// rates) through every engine.
func benchStream(cfg *Config, n int) [][]FaultRecord {
	gen := newGenerator(cfg)
	rng := simrand.New(42)
	trials := make([][]FaultRecord, 0, n)
	for len(trials) < n {
		buf := gen.Trial(rng, nil)
		if len(buf) > 0 {
			trials = append(trials, buf)
		}
	}
	return trials
}

// BenchmarkTableICampaign measures the Monte-Carlo hot loop on the
// paper's Table I operating point, both as isolated judging throughput
// over an identical captured stream (judge/engine=*) and as the full
// generate-and-judge campaign (end2end*). The judge split is the
// honest basis for the lane engine's speedup claim: trial generation is
// engine-invariant and amortises to a constant floor, so end-to-end gains
// saturate near the generation fraction while the judging step itself
// scales with the bit-slicing.
func BenchmarkTableICampaign(b *testing.B) {
	const streamLen = 8192
	cfg := DefaultConfig()
	schemes := AllSchemes()
	trials := benchStream(&cfg, streamLen)

	b.Run("judge/engine=indexed", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		var outs []TrialOutcome
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, faults := range trials {
				outs = ev.EvaluateInto(faults, outs)
				for s := range outs {
					if !math.IsInf(outs[s].FailTime, 1) {
						sink += outs[s].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	b.Run("judge/engine=reference", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		var outs []TrialOutcome
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, faults := range trials {
				outs = ev.referenceInto(faults, outs)
				for s := range outs {
					if !math.IsInf(outs[s].FailTime, 1) {
						sink += outs[s].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	b.Run("judge/engine=lanes", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		lv := NewLaneEvaluator(ev)
		// Pre-pack once: in the campaign the generator appends records
		// straight into the batch (no per-trial copy), so packing is not
		// part of the judging step being measured.
		var st simrand.State
		batches := make([]*LaneBatch, 0, streamLen/LaneWidth)
		for base := 0; base < len(trials); base += LaneWidth {
			bt := new(LaneBatch)
			for i := base; i < base+LaneWidth && i < len(trials); i++ {
				bt.Add(i-base, st, trials[i])
			}
			batches = append(batches, bt)
		}
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, bt := range batches {
				lv.EvaluateBatch(bt)
				// Consume outcomes the way flushBatch does: failing
				// lanes only, via the per-scheme fail masks.
				for s := range schemes {
					for m := lv.FailMask(s); m != 0; m &= m - 1 {
						L := bits.TrailingZeros64(m)
						sink += lv.outs[s*LaneWidth+L].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	// Generation-only split: the campaign loop minus judging, chunked and
	// substream-seeded exactly as the campaign chunks it, under both
	// generation modes. gen + judge ≈ end2end is the sanity identity;
	// gen/gen=batch against gen/gen=scalar is the batch generator's
	// headline speedup.
	const genTrials = 1 << 16
	genEval := NewEvaluator(&cfg, schemes)

	b.Run("gen/gen=scalar", func(b *testing.B) {
		g := newRunGenerator(&cfg, genEval)
		rng := simrand.New(0)
		var buf []FaultRecord
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < genTrials; lo += DefaultChunkSize {
				rng.SeedStream(1, uint64(lo/DefaultChunkSize))
				g.resetEvents()
				t := lo
				for t < lo+DefaultChunkSize {
					skipped, out := g.nextNonEmpty(rng, buf[:0])
					buf = out
					if skipped >= lo+DefaultChunkSize-t {
						break
					}
					t += skipped + 1
				}
			}
		}
		b.ReportMetric(float64(genTrials*b.N)/b.Elapsed().Seconds(), "trials/s")
	})

	b.Run("gen/gen=batch", func(b *testing.B) {
		bg := newBatchGenerator(newRunGenerator(&cfg, genEval))
		rng := simrand.New(0)
		var buf []FaultRecord
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < genTrials; lo += DefaultChunkSize {
				rng.SeedStream(1, uint64(lo/DefaultChunkSize))
				bg.g.resetEvents()
				bg.plan(rng, DefaultChunkSize)
				buf = buf[:0]
				for t := 0; t < bg.emitted(); t++ {
					buf = bg.emitTrial(rng, t, buf)
				}
			}
		}
		b.ReportMetric(float64(genTrials*b.N)/b.Elapsed().Seconds(), "trials/s")
	})

	// The campaign end to end: the production path, and the scalar
	// oracle (scalar generation judged by the indexed Evaluator, every
	// campaign's path before batch + lanes) as its baseline.
	for name, oracle := range map[string]func(CampaignOptions) CampaignOptions{
		"end2end":                       func(o CampaignOptions) CampaignOptions { return o },
		"end2end/oracle=scalar-indexed": scalarOracle,
	} {
		b.Run(name, func(b *testing.B) {
			const campaignTrials = 200_000
			opts := oracle(CampaignOptions{Trials: campaignTrials, Seed: 1})
			for i := 0; i < b.N; i++ {
				if _, err := RunCampaign(context.Background(), cfg, schemes, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(campaignTrials*b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
