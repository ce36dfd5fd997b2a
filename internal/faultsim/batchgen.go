package faultsim

import (
	"context"
	"fmt"

	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// Batched trial generation: the campaign generator.
//
// The scalar generator interleaves every trial's draws: one Poisson count,
// then per record a class draw, an onset draw and three bounded geometry
// draws, each paying full per-call sampler overhead. After the lane engine
// (PR 6) collapsed judging to ~200µs per 200k Table I trials, that scalar
// draw sequence was ~25x the judging cost. The batch generator restructures
// a whole chunk into structure-of-arrays form:
//
//  1. One arrival pass plans the chunk: TruncPoisson.NextPositiveRuns
//     emits (zero-run, count) pairs, so the ~75% of trials that draw no
//     faults cost no uniforms at all (the geometric skip covers them).
//  2. Record columns are sampled array-at-a-time — class uniforms and
//     onsets via Source.FillFloat64 with the xoshiro state in registers,
//     channel/rank/chip via IntnSampler.Fill over one bulk word column —
//     instead of record-at-a-time.
//  3. A pack loop walks the plan in trial order and materialises records
//     through generator.emitPlaced, which also keeps the rare conditional
//     draws (address ranges, silent words, scaling escalation, multi-rank
//     expansion) on the scalar route, in the scalar order.
//
// Determinism contract: for a fixed (cfg, seed, chunk index) the plan is a
// pure function of the chunk substream, so campaign results remain
// bit-identical across worker counts, judging oracles, checkpoint/resume
// patterns and the service/local split — the campaign invariants are
// untouched. What changes is the *order* uniforms are consumed in, so batch
// streams are not bit-identical to scalar streams; they are exactly
// distributed instead:
//
//   - The arrival decomposition (geometric zero-run + zero-truncated count)
//     is the same exact identity the scalar fast path uses; stopping at the
//     chunk boundary without drawing a count is exact because
//     P(zero-run >= remaining) = q^remaining is precisely the probability
//     that every remaining trial is empty.
//   - Poisson splitting makes the records of a chunk i.i.d. across
//     (class, onset, geometry), so sampling those fields column-major
//     instead of row-major leaves the joint law unchanged.
//   - Each column primitive is distribution-exact against its scalar
//     counterpart (see internal/simrand/batch.go); the only intentional
//     law-preserving deviations are that the aging path always draws its
//     thinning uniform (the scalar Bernoulli skips the draw when the
//     acceptance probability is exactly 1) and that a rank is drawn for
//     multi-rank (GranChip) records whose expansion then overwrites it.
//
// The gate mirrors the lane engine's: the FuzzBatchGenVsScalar
// differential fuzz, the 1000-config conformance differential and
// `xedverify` (including through a live coordinator) must all pass. Because
// the streams differ, the generator is part of the campaign identity hash —
// see campaignHashInput.

// batchGenerator wraps a scalar generator with per-chunk plan storage. It
// is single-goroutine, like the campaignWorker that owns it, and reuses all
// plan columns across chunks (0 allocs/op in steady state). Plan memory is
// O(records per chunk): ~40B per expected record.
type batchGenerator struct {
	g       *generator
	trunc   simrand.TruncPoisson // arrival runs at totalMean (flat profile)
	truncPk simrand.TruncPoisson // candidate runs at totalMean * aging peak
	*planColumns

	met batchGenMetrics
}

// planColumns is a chunk plan's storage. trialPos[i] is the chunk-relative
// index of the i-th emitted trial (>= 1 record after aging thinning); its
// records occupy the column range [recEnd[i-1], recEnd[i]).
type planColumns struct {
	runs     []simrand.PosRun
	trialPos []int32
	recEnd   []int32
	class    []int32   // index into g.classes
	u01      []float64 // onset as a lifetime fraction in [0, 1)
	ch       []int32
	rk       []int32
	chip     []int32

	// Scratch columns.
	words []uint64  // bulk words for IntnSampler.Fill
	f64   []float64 // class uniforms; aging thinning uniforms
	x     []float64 // aging candidate onsets
}

// batchGenMetrics publishes generation-shape statistics under
// "faultsim.gen.*". Handles resolve once per campaign; observations happen
// at chunk granularity from the already-built plan arrays (pure atomic
// ops, 0 allocs), and the whole block is skipped when no registry is
// attached.
type batchGenMetrics struct {
	attached     bool
	refills      *obs.Counter   // chunk plans built
	recsPerTrial *obs.Histogram // records per emitted trial
	skipRun      *obs.Histogram // empty-trial run length preceding each emitted trial
}

func newBatchGenerator(g *generator) *batchGenerator {
	bg := &batchGenerator{g: g, planColumns: new(planColumns)}
	if g.totalMean > 0 {
		bg.trunc = simrand.NewTruncPoisson(g.totalMean)
		if g.cfg.Aging.enabled() {
			bg.truncPk = simrand.NewTruncPoisson(g.totalMean * g.cfg.Aging.Peak())
		}
	}
	return bg
}

func (bg *batchGenerator) setMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	bg.met = batchGenMetrics{
		attached:     true,
		refills:      r.Counter("faultsim.gen.batch_refills"),
		recsPerTrial: r.Histogram("faultsim.gen.records_per_trial", []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		skipRun:      r.Histogram("faultsim.gen.skip_run", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}),
	}
}

// grow returns s resized to n elements. A reallocation leaves 25%
// headroom: chunk record counts fluctuate, and sizing each column exactly
// would reallocate it at every new high-water mark.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// plan builds the chunk plan for n trials from rng, which must sit at the
// head of the chunk's substream. The draw order is the batch mode's
// canonical sequence (the differential fuzz reference reproduces it with
// scalar primitives): arrival runs; [aging: candidate-onset column, then
// thinning column]; class-uniform column; [flat: onset column]; channel,
// rank, chip word columns with rejection redraws in ascending index order.
// Conditional per-record draws happen later, inside emitTrial.
func (bg *batchGenerator) plan(rng *simrand.Source, n int) {
	g := bg.g
	bg.runs = bg.runs[:0]
	bg.trialPos = bg.trialPos[:0]
	bg.recEnd = bg.recEnd[:0]
	if g.totalMean <= 0 {
		return
	}
	aging := g.cfg.Aging
	total := int32(0)
	if !aging.enabled() {
		bg.runs = bg.trunc.NextPositiveRuns(rng, n, bg.runs)
		pos := int32(-1)
		for _, r := range bg.runs {
			pos += r.Skip + 1
			total += r.Count
			bg.trialPos = append(bg.trialPos, pos)
			bg.recEnd = append(bg.recEnd, total)
		}
		bg.fillColumns(rng, int(total), true)
		bg.observe()
		return
	}
	// Aging: candidates arrive at the envelope (peak) rate and are thinned
	// to the instantaneous multiplier — the same exact non-homogeneous
	// sampling the scalar path uses, with the candidate onsets and
	// acceptance uniforms drawn as columns. Thinning can empty a trial, so
	// emitted trials are the runs with >= 1 accepted candidate.
	bg.runs = bg.truncPk.NextPositiveRuns(rng, n, bg.runs)
	cand := 0
	for _, r := range bg.runs {
		cand += int(r.Count)
	}
	bg.x = grow(bg.x, cand)
	bg.f64 = grow(bg.f64, cand)
	rng.FillFloat64(bg.x)
	rng.FillFloat64(bg.f64)
	bg.u01 = grow(bg.u01, cand)[:0]
	peak := aging.Peak()
	ci := 0
	pos := int32(-1)
	for _, r := range bg.runs {
		pos += r.Skip + 1
		kept := int32(0)
		for j := int32(0); j < r.Count; j++ {
			if x := bg.x[ci]; bg.f64[ci] < aging.Multiplier(x)/peak {
				bg.u01 = append(bg.u01, x)
				kept++
			}
			ci++
		}
		if kept > 0 {
			total += kept
			bg.trialPos = append(bg.trialPos, pos)
			bg.recEnd = append(bg.recEnd, total)
		}
	}
	bg.fillColumns(rng, int(total), false)
	bg.observe()
}

// fillColumns samples the per-record columns for R records. The onset
// column is only drawn on the flat path; under aging the accepted candidate
// onsets are already in u01.
func (bg *batchGenerator) fillColumns(rng *simrand.Source, R int, withOnsets bool) {
	g := bg.g
	bg.f64 = grow(bg.f64, R)
	rng.FillFloat64(bg.f64)
	bg.class = grow(bg.class, R)
	for i, u := range bg.f64 {
		bg.class[i] = int32(g.classSamp.Lookup(u))
	}
	if withOnsets {
		bg.u01 = grow(bg.u01, R)
		rng.FillFloat64(bg.u01)
	}
	bg.words = grow(bg.words, R)
	bg.ch = grow(bg.ch, R)
	bg.rk = grow(bg.rk, R)
	bg.chip = grow(bg.chip, R)
	g.chSamp.Fill(rng, bg.ch, bg.words)
	// Multi-rank (GranChip) records consume a rank draw here like every
	// other record; emitPlaced's expansion overwrites it. Unconditional
	// columns keep the plan branch-free and the law is unchanged (the
	// draw is independent of everything it feeds).
	g.rankSamp.Fill(rng, bg.rk, bg.words)
	g.chipSamp.Fill(rng, bg.chip, bg.words)
}

// observe publishes the chunk plan's shape metrics.
func (bg *batchGenerator) observe() {
	if !bg.met.attached {
		return
	}
	bg.met.refills.Inc()
	for _, r := range bg.runs {
		bg.met.skipRun.Observe(float64(r.Skip))
	}
	prev := int32(0)
	for _, end := range bg.recEnd {
		bg.met.recsPerTrial.Observe(float64(end - prev))
		prev = end
	}
}

// emitted returns the number of planned non-empty trials in the chunk.
func (bg *batchGenerator) emitted() int { return len(bg.trialPos) }

// emitTrial packs emitted trial i's records onto buf, drawing any
// conditional per-record randomness (ranges, silent words, escalation) from
// rng in the scalar order. Trials must be emitted in plan order exactly
// once per chunk: the conditional draws and the EventID counter advance
// with each call.
func (bg *batchGenerator) emitTrial(rng *simrand.Source, i int, buf []FaultRecord) []FaultRecord {
	g := bg.g
	lo := int32(0)
	if i > 0 {
		lo = bg.recEnd[i-1]
	}
	lifetime := g.cfg.LifetimeHours
	for r := lo; r < bg.recEnd[i]; r++ {
		cls := g.classes[bg.class[r]]
		buf = g.emitPlaced(rng, buf, cls, bg.u01[r]*lifetime,
			int(bg.ch[r]), int(bg.rk[r]), int(bg.chip[r]))
	}
	return buf
}

// runBatchChunk is runChunk's production body: plan the whole chunk, then
// pack the planned trials straight into the worker's LaneBatch and judge
// them 64 at a time. Fast mode commits only the emitted trials (skipped
// empties survive every scheme and tally nothing); otherwise every trial of
// the chunk gets a lane. Scheme panics are contained per lane by the
// LaneEvaluator; a panic escaping to this frame is a generation failure
// and propagates (recovery there could not keep the stream deterministic).
// The chunk-head RNG state anchors any TrialError (see
// TrialError.RNGState).
func (w *campaignWorker) runBatchChunk(ctx context.Context, lo, hi int) bool {
	if ctx.Err() != nil {
		return false
	}
	st := w.rng.State()
	w.bg.plan(w.rng, hi-lo)
	rng, bg, b := w.rng, w.bg, w.batch
	b.Reset()
	if w.fast {
		lv := w.lv
		// emitTrial and commitDigested are open-coded: the fast path
		// visits every emitted trial in order, so recEnd[i-1] is just
		// where the previous iteration stopped, and keeping the recs/lrs
		// slice headers and the lane count in locals spares a load+store
		// per record. The locals sync back to the batch at every flush
		// boundary (flushBatch resets the batch) and on early return.
		g := bg.g
		lifetime := g.cfg.LifetimeHours
		rLo := int32(0)
		recs, lrs, lanes := b.recs, b.lrs, b.lanes
		for i := 0; i < bg.emitted(); i++ {
			if i&255 == 0 && ctx.Err() != nil {
				b.recs, b.lrs, b.lanes = recs, lrs, lanes
				return false
			}
			n0 := len(recs)
			for r := rLo; r < bg.recEnd[i]; r++ {
				recs = g.emitPlaced(rng, recs, g.classes[bg.class[r]],
					bg.u01[r]*lifetime, int(bg.ch[r]), int(bg.rk[r]), int(bg.chip[r]))
			}
			rLo = bg.recEnd[i]
			// Pre-judged survivors: most emitted trials hold one record,
			// and when its signature is overweight for no scheme the lane
			// would sail through EvaluateBatch without setting a fail bit.
			// Dropping it here skips the mask pass and the flush for over
			// half the stream at stock rates; outcomes are untouched
			// because a surviving lane tallies nothing. The record is
			// digested into a local first — cache-hot, and survivors never
			// touch lrs at all.
			if len(recs) == n0+1 {
				r := &recs[n0]
				sig := recSig(r)
				if lv.singleSurvives(sig) {
					recs = recs[:n0]
					continue
				}
				lrs = append(lrs, digestRecordSig(r, sig))
			} else {
				for ri := n0; ri < len(recs); ri++ {
					lrs = append(lrs, digestRecord(&recs[ri]))
				}
			}
			b.trial[lanes] = lo + int(bg.trialPos[i])
			b.state[lanes] = st
			lanes++
			b.offs[lanes] = int32(len(recs))
			if lanes == LaneWidth {
				b.recs, b.lrs, b.lanes = recs, lrs, lanes
				w.flushBatch()
				recs, lrs, lanes = b.recs, b.lrs, b.lanes
			}
		}
		b.recs, b.lrs, b.lanes = recs, lrs, lanes
	} else {
		ti := 0
		for t := lo; t < hi; t++ {
			if (t-lo)&cancelCheckMask == 0 && ctx.Err() != nil {
				return false
			}
			if ti < bg.emitted() && lo+int(bg.trialPos[ti]) == t {
				b.recs = bg.emitTrial(rng, ti, b.recs)
				ti++
			}
			b.commit(t, st)
			if b.Lanes() == LaneWidth {
				w.flushBatch()
			}
		}
	}
	w.flushBatch()
	return true
}

// CaptureTraceGen is CaptureTrace under a selectable generator: GenBatch
// (or "") plans the requested trials as one batch chunk, the way a campaign
// draws them, and materialises every trial (empty ones stay nil, as in
// CaptureTrace). GenScalar delegates to CaptureTrace. The conformance
// differential claim uses this to drive random configs through the batch
// plan/pack path.
func CaptureTraceGen(cfg Config, trials int, seed uint64, gen Generator) (*Trace, error) {
	gen, err := ParseGenerator(string(gen))
	if err != nil {
		return nil, err
	}
	if gen == GenScalar {
		return CaptureTrace(cfg, trials, seed)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trials <= 0 {
		return nil, fmt.Errorf("faultsim: non-positive trial count %d", trials)
	}
	rng := simrand.New(seed)
	bg := newBatchGenerator(newGenerator(&cfg))
	tr := &Trace{Config: cfg, Seed: seed, Trials: make([][]FaultRecord, trials)}
	bg.plan(rng, trials)
	for i := 0; i < bg.emitted(); i++ {
		tr.Trials[bg.trialPos[i]] = bg.emitTrial(rng, i, nil)
	}
	return tr, nil
}
