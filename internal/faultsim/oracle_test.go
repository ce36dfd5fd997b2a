package faultsim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"xedsim/internal/simrand"
)

// Reference paths for campaign chunks. Campaigns plan every chunk with the
// batch generator and judge it 64 trials per word with the LaneEvaluator;
// these oracles judge the same trials one at a time, so tests can demand
// bit-identical Reports:
//
//   - indexedOracle judges the batch plan with the pre-indexed Evaluator;
//   - referenceOracle judges it with the O(n²) reference probe;
//   - scalarOracle draws each trial with the scalar generator (every
//     campaign's stream before batch generation became the only path) and
//     judges it with the Evaluator. Its config hash is the scalar one.
//
// A panicking trial is voided and recorded exactly as the lane path
// records it, so error lists compare too.

func indexedOracle(opts CampaignOptions) CampaignOptions {
	opts.oracle = &chunkOracle{run: oracleChunk(false, (*Evaluator).EvaluateInto)}
	return opts
}

func referenceOracle(opts CampaignOptions) CampaignOptions {
	opts.oracle = &chunkOracle{run: oracleChunk(false, (*Evaluator).referenceInto)}
	return opts
}

func scalarOracle(opts CampaignOptions) CampaignOptions {
	opts.oracle = &chunkOracle{scalar: true, run: oracleChunk(true, (*Evaluator).EvaluateInto)}
	return opts
}

// referenceInto judges the trial with every scheme's reference probe
// (O(n²) FailTimeKind) instead of the pre-index.
func (e *Evaluator) referenceInto(faults []FaultRecord, out []TrialOutcome) []TrialOutcome {
	e.trials.Inc()
	out = out[:0]
	for i := range e.evals {
		out = append(out, e.genericOutcome(e.evals[i].scheme, faults))
	}
	return out
}

type judgeFunc func(ev *Evaluator, faults []FaultRecord, out []TrialOutcome) []TrialOutcome

// oracleChunk builds a chunk loop that generates trials [lo, hi) with the
// scalar or the batch generator and judges each one with judge. Only
// trials that can fail are judged: in fast mode (empty trials survive
// every scheme) the empty ones are skipped, as the production path skips
// them.
func oracleChunk(scalar bool, judge judgeFunc) func(w *campaignWorker, ctx context.Context, lo, hi int) bool {
	return func(w *campaignWorker, ctx context.Context, lo, hi int) bool {
		if ctx.Err() != nil {
			return false
		}
		var outs []TrialOutcome
		visit := func(t int, st simrand.State, faults []FaultRecord) {
			defer func() {
				if r := recover(); r != nil {
					w.errs = append(w.errs, TrialError{
						Trial: t, Chunk: w.chunk, RNGState: st,
						Faults:     append([]FaultRecord(nil), faults...),
						PanicValue: fmt.Sprint(r), Stack: string(debug.Stack()),
					})
				}
			}()
			outs = judge(w.ev, faults, outs)
			oracleTally(w, outs)
		}
		rng := w.rng
		var buf []FaultRecord
		if scalar {
			for t := lo; t < hi; t++ {
				st := rng.State()
				if !w.fast {
					buf = w.gen.Trial(rng, buf)
					visit(t, st, buf)
					continue
				}
				var skipped int
				skipped, buf = w.gen.nextNonEmpty(rng, buf[:0])
				if skipped >= hi-t {
					break // the rest of the chunk drew empty trials
				}
				t += skipped
				if len(buf) > 0 { // aging thinning can still empty a trial
					visit(t, st, buf)
				}
			}
			return true
		}
		st := rng.State()
		bg := w.bg
		bg.plan(rng, hi-lo)
		next := 0 // next emitted trial
		for t := lo; t < hi; t++ {
			buf = buf[:0]
			if next < bg.emitted() && lo+int(bg.trialPos[next]) == t {
				buf = bg.emitTrial(rng, next, buf)
				next++
			} else if w.fast {
				continue
			}
			visit(t, st, buf)
		}
		return true
	}
}

// oracleTally folds one judged trial's outcomes into the chunk tallies.
func oracleTally(w *campaignWorker, outs []TrialOutcome) {
	for s := range outs {
		ft := outs[s].FailTime
		if math.IsInf(ft, 1) {
			continue
		}
		w.total[s]++
		switch outs[s].Kind {
		case FailDUE:
			w.dues[s]++
		case FailSDC:
			w.sdcs[s]++
		}
		yr := int(ft * invHoursPerYear)
		if yr >= w.years {
			yr = w.years - 1
		}
		w.failures[s][yr]++
	}
}
