package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/chunkrun"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// This file is the resilient Monte-Carlo campaign engine. Run delegates to
// it; the CLIs reach it directly through RunCampaign for cancellation,
// checkpoint/resume and panic isolation.
//
// The campaign is divided into fixed-size chunks of consecutive trials, and
// chunk c draws from simrand substream (seed, c) — see Source.SeedStream.
// Chunks make three guarantees compose:
//
//   - Worker-count invariance: a chunk's trial stream is a pure function of
//     (config, seed, chunk index), and per-scheme tallies are sums of
//     per-chunk integers, so any scheduling of chunks over any number of
//     workers produces bit-identical Results.
//   - Checkpoint/resume: a snapshot is the set of completed chunks plus the
//     accumulated tallies. Resuming re-runs exactly the missing chunks, so
//     an interrupted+resumed campaign equals an uninterrupted one.
//   - Panic isolation: trial evaluation (scheme code) never touches the
//     trial RNG, so a panicking trial is caught, voided and recorded as a
//     TrialError without desynchronising the chunk's stream; its recorded
//     fault stream replays it in isolation.
//
// Chunk streams rather than per-trial streams are a measured tradeoff:
// reseeding xoshiro per trial costs more than an average trial does
// (~29ns vs ~14ns — most trials draw zero faults and are skipped
// wholesale by the geometric fast path), which would blow the <5%
// regression budget on the Table I campaign benchmark.

// Campaign engine defaults.
const (
	// DefaultChunkSize is the trials-per-chunk granularity of scheduling,
	// checkpointing and cancellation draining. A chunk is ~100µs of work.
	DefaultChunkSize = 4096
	// DefaultCheckpointInterval spaces periodic snapshots.
	DefaultCheckpointInterval = chunkrun.DefaultInterval
	// DefaultErrorBudget is how many panicking trials a campaign tolerates
	// before giving up (CampaignOptions.ErrorBudget zero value).
	DefaultErrorBudget = 100
)

// checkpointKind and checkpointVersion frame campaign snapshots on disk.
const (
	checkpointKind    = "faultsim-campaign"
	checkpointVersion = 1
)

// ErrErrorBudgetExceeded reports a campaign aborted because more trials
// panicked than ErrorBudget tolerates.
var ErrErrorBudgetExceeded = errors.New("faultsim: trial-error budget exceeded")

// Generator names a trial-generation implementation. Campaigns always run
// GenBatch. The scalar generator still drives TrialSource and the fleet
// simulator, and is the oracle FuzzBatchGenVsScalar and the batch
// generator's law tests compare against; GenScalar selects it in
// CaptureTraceGen. The two draw the same distributions, but the batch generator consumes
// uniforms in a different (column-major) order, so its trial streams —
// exactly distributed like the scalar ones, see batchgen.go — are not
// bit-identical to them. The config hash therefore covers the generator:
// a checkpoint written by the scalar generator (every campaign's default
// before batch generation became the only path) is refused, never resumed
// on a different stream.
type Generator string

const (
	// GenScalar draws each trial's records one scalar variate at a time.
	GenScalar Generator = "scalar"
	// GenBatch plans a whole chunk of trials at once in structure-of-arrays
	// form: one arrival-run pass, then class/onset/geometry columns filled
	// array-at-a-time. See batchgen.go.
	GenBatch Generator = "batch"
)

// ParseGenerator maps a name to a Generator. The empty string selects
// GenBatch, the campaign generator.
func ParseGenerator(s string) (Generator, error) {
	switch Generator(s) {
	case "", GenBatch:
		return GenBatch, nil
	case GenScalar:
		return GenScalar, nil
	}
	return "", fmt.Errorf("faultsim: unknown generator %q (want batch or scalar)", s)
}

// CampaignOptions parameterises RunCampaign.
type CampaignOptions struct {
	// Trials is the number of systems to simulate. Required.
	Trials int
	// Seed is the campaign seed; all trial randomness derives from it.
	Seed uint64
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// ChunkSize is the trials-per-chunk scheduling granularity; 0 selects
	// DefaultChunkSize. Results are deterministic for a fixed (Config,
	// Trials, Seed, ChunkSize) regardless of Workers.
	ChunkSize int
	// CheckpointPath enables periodic atomic snapshots when non-empty.
	CheckpointPath string
	// CheckpointInterval spaces periodic snapshots; 0 selects
	// DefaultCheckpointInterval.
	CheckpointInterval time.Duration
	// Resume loads CheckpointPath before starting and re-runs only the
	// chunks it does not cover. A missing file starts fresh; a snapshot
	// from any different configuration is refused.
	Resume bool
	// ErrorBudget is the maximum number of panicking trials tolerated
	// before the campaign aborts with ErrErrorBudgetExceeded. The zero
	// value selects DefaultErrorBudget; any negative value tolerates none.
	ErrorBudget int
	// OnChunk, when non-nil, observes progress after each chunk merge
	// (and once at startup when resuming): completed and total chunk
	// counts. It is called from worker goroutines, serialised.
	OnChunk func(doneChunks, totalChunks int)
	// Metrics, when non-nil, publishes live campaign counters under
	// "campaign.*" names: trial/chunk progress, per-scheme failure
	// tallies, trial errors and checkpoint save latency. Tallies advance
	// at chunk granularity (under the merge lock, off the trial hot
	// path); only campaign.trials_evaluated ticks per evaluated trial,
	// with a single nil-safe atomic add.
	Metrics *obs.Registry

	// oracle, set only by this package's tests, swaps the production chunk
	// loop for a slower reference one (see oracle_test.go).
	oracle *chunkOracle
}

// chunkOracle is a reference path for one campaign chunk, kept for tests
// that compare Reports against the production path: run generates and
// judges trials [lo, hi) into the worker's tallies and reports false if
// ctx cancelled it. scalar marks oracles drawing with the scalar
// generator, a distinct stream the config hash must tell apart.
type chunkOracle struct {
	scalar bool
	run    func(w *campaignWorker, ctx context.Context, lo, hi int) bool
}

// TrialError records one panicking trial: where it was, the fault stream
// it drew, and what the panic said. The campaign voids the trial (no scheme
// tallies it) and continues.
type TrialError struct {
	// Trial is the global trial index; Chunk the chunk it belongs to.
	Trial int `json:"trial"`
	Chunk int `json:"chunk"`
	// RNGState is the chunk substream's state at the head of the chunk.
	// A chunk's trials are planned together, so no per-trial state exists;
	// Faults carries the authoritative records (see Replay).
	RNGState simrand.State `json:"rng_state"`
	// Faults is the trial's generated fault stream.
	Faults []FaultRecord `json:"faults"`
	// PanicValue and Stack describe the panic.
	PanicValue string `json:"panic"`
	Stack      string `json:"stack,omitempty"`
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("faultsim: trial %d (chunk %d) panicked: %s", e.Trial, e.Chunk, e.PanicValue)
}

// Replay re-judges the errored trial in isolation: it evaluates the
// recorded fault stream with schemes, the panic contained. cfg and schemes
// must match the original campaign's. It returns the faults it judged, the
// per-scheme outcomes (nil if the panic recurred) and the recovered panic
// value (nil if it did not).
func (e *TrialError) Replay(cfg Config, schemes []Scheme) (faults []FaultRecord, outs []TrialOutcome, panicked any, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(schemes) == 0 {
		return nil, nil, nil, fmt.Errorf("faultsim: no schemes to evaluate")
	}
	faults = append([]FaultRecord(nil), e.Faults...)
	ev := NewEvaluator(&cfg, schemes)
	func() {
		defer func() { panicked = recover() }()
		outs = append([]TrialOutcome(nil), ev.EvaluateInto(faults, nil)...)
	}()
	if panicked != nil {
		outs = nil
	}
	return faults, outs, panicked, nil
}

// SchemeTally is one scheme's integer tallies over some set of trials: the
// unit of chunk merging, of checkpoint payloads, and of the wire envelopes
// distributed workers return (see ChunkResult). Tallies compose by field-
// wise addition, which is what makes any partition of a campaign's chunks
// across processes merge back to bit-identical Results.
type SchemeTally struct {
	Failures uint64   `json:"failures"`
	DUEs     uint64   `json:"dues"`
	SDCs     uint64   `json:"sdcs"`
	ByYear   []uint64 `json:"by_year"`
}

// add folds t2 into t (field-wise integer addition).
func (t *SchemeTally) add(t2 *SchemeTally) {
	t.Failures += t2.Failures
	t.DUEs += t2.DUEs
	t.SDCs += t2.SDCs
	for y := range t.ByYear {
		t.ByYear[y] += t2.ByYear[y]
	}
}

// campaignSnapshot is the checkpoint payload: completed-chunk bitmap plus
// accumulated tallies. The shape parameters double as a human-readable
// record; compatibility is enforced by the envelope's config hash.
type campaignSnapshot struct {
	Trials     int           `json:"trials"`
	Seed       uint64        `json:"seed"`
	ChunkSize  int           `json:"chunk_size"`
	Years      int           `json:"years"`
	Schemes    []string      `json:"schemes"`
	DoneChunks []uint64      `json:"done_chunks"` // bitmap, chunk c at word c/64 bit c%64
	DoneTrials uint64        `json:"done_trials"` // tallied trials (excludes errored)
	Complete   bool          `json:"complete"`
	Results    []SchemeTally `json:"results"`
	Errors     []TrialError  `json:"errors,omitempty"`
}

// campaignHashInput is what the checkpoint config hash covers: everything
// that shapes the trial streams and the meaning of the accumulators. Gen is
// "batch" for every campaign; scalar-generator campaigns hashed with it
// omitted, which keeps their checkpoints distinguishable.
type campaignHashInput struct {
	Config    Config   `json:"config"`
	Schemes   []string `json:"schemes"`
	Trials    int      `json:"trials"`
	Seed      uint64   `json:"seed"`
	ChunkSize int      `json:"chunk_size"`
	Gen       string   `json:"gen,omitempty"`
}

// engine is one campaign's identity and accumulator. RunCampaign drives it
// through the chunkrun runner; ChunkRunner and Merger (distrib.go) are the
// same engine seen from a distributed worker and coordinator. The
// accumulator fields are guarded by run's lock.
type engine struct {
	cfg     Config
	schemes []Scheme
	opts    CampaignOptions
	years   int
	hash    string
	run     *chunkrun.Runner

	doneTrials uint64
	accum      []SchemeTally
	trialErrs  []TrialError
}

// campaignMetrics holds pre-resolved obs handles; every field is nil (and
// every update a no-op) when CampaignOptions.Metrics is unset. The
// checkpoint.* handles belong to the runner.
type campaignMetrics struct {
	trialsRequested *obs.Gauge
	trialsDone      *obs.Counter
	trialErrors     *obs.Counter
	chunksDone      *obs.Counter
	chunksTotal     *obs.Gauge
	errorBudget     *obs.Gauge

	// Per-scheme tallies, parallel to the engine's scheme slice.
	failures []*obs.Counter
	dues     []*obs.Counter
	sdcs     []*obs.Counter
}

func newCampaignMetrics(r *obs.Registry, schemes []Scheme) campaignMetrics {
	m := campaignMetrics{
		trialsRequested: r.Gauge("campaign.trials_requested"),
		trialsDone:      r.Counter("campaign.trials_done"),
		trialErrors:     r.Counter("campaign.trial_errors"),
		chunksDone:      r.Counter("campaign.chunks_done"),
		chunksTotal:     r.Gauge("campaign.chunks_total"),
		errorBudget:     r.Gauge("campaign.error_budget"),
	}
	for _, s := range schemes {
		prefix := "campaign.scheme." + s.Name()
		m.failures = append(m.failures, r.Counter(prefix+".failures"))
		m.dues = append(m.dues, r.Counter(prefix+".dues"))
		m.sdcs = append(m.sdcs, r.Counter(prefix+".sdcs"))
	}
	return m
}

// credit advances the live counters by merged progress: atomic adds only,
// off the per-trial hot path.
func (m *campaignMetrics) credit(chunks int, trials uint64, errs int, tallies []SchemeTally) {
	m.chunksDone.Add(uint64(chunks))
	m.trialsDone.Add(trials)
	m.trialErrors.Add(uint64(errs))
	for s := range m.failures {
		m.failures[s].Add(tallies[s].Failures)
		m.dues[s].Add(tallies[s].DUEs)
		m.sdcs[s].Add(tallies[s].SDCs)
	}
}

// newEngine validates (cfg, schemes, opts), normalizes the options
// (default chunk size, checkpoint interval, error budget) and
// builds the campaign accumulator state shared by RunCampaign, ChunkRunner
// and Merger. needHash forces the config-hash computation even when no
// CheckpointPath is set (distributed merging always needs it).
func newEngine(cfg Config, schemes []Scheme, opts CampaignOptions, needHash bool) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("faultsim: non-positive trial count %d", opts.Trials)
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("faultsim: no schemes to evaluate")
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	switch {
	case opts.ErrorBudget == 0:
		opts.ErrorBudget = DefaultErrorBudget
	case opts.ErrorBudget < 0:
		opts.ErrorBudget = 0
	}
	e := &engine{
		cfg:     cfg,
		schemes: schemes,
		opts:    opts,
		years:   int(math.Ceil(cfg.LifetimeHours / HoursPerYear)),
	}
	if needHash {
		gen := GenBatch
		if opts.oracle != nil && opts.oracle.scalar {
			gen = GenScalar
		}
		var err error
		if e.hash, err = e.configHash(gen); err != nil {
			return nil, err
		}
	}
	e.run = chunkrun.New(chunkrun.Layout{Items: opts.Trials, Size: opts.ChunkSize}, chunkrun.Checkpoint{
		Path:     opts.CheckpointPath,
		Interval: opts.CheckpointInterval,
		Kind:     checkpointKind,
		Version:  checkpointVersion,
		Hash:     e.hash,
		Snapshot: func() any { snap := e.snapshotLocked(); return &snap },
		Metrics:  opts.Metrics,
		Prefix:   "campaign",
	})
	e.accum = make([]SchemeTally, len(schemes))
	for i := range e.accum {
		e.accum[i].ByYear = make([]uint64, e.years)
	}
	return e, nil
}

// configHash hashes the campaign's identity as generated by gen. The scalar
// generator's hash omits the field, as every checkpoint it wrote did.
func (e *engine) configHash(gen Generator) (string, error) {
	names := make([]string, len(e.schemes))
	for i, s := range e.schemes {
		names[i] = s.Name()
	}
	in := campaignHashInput{Config: e.cfg, Schemes: names, Trials: e.opts.Trials,
		Seed: e.opts.Seed, ChunkSize: e.opts.ChunkSize}
	if gen != GenScalar {
		in.Gen = string(gen)
	}
	return checkpoint.Hash(in)
}

// RunCampaign executes a resilient Monte-Carlo campaign. Each chunk is
// planned by the batch generator and judged 64 trials per machine word by
// the LaneEvaluator (lanes.go), which falls back to the indexed Evaluator
// only for lanes its masks cannot decide. It honours ctx
// cancellation by draining workers at chunk boundaries and returning the
// partial Report alongside ctx's error; with CheckpointPath set it also
// snapshots progress periodically and on cancellation, and Resume picks a
// campaign back up from such a snapshot. Completed runs return a Report
// covering exactly Trials trials (minus any panicking trials, which are
// voided and listed in Report.TrialErrors) and a nil error.
//
// Results are bit-identical for a fixed (cfg, Trials, Seed, ChunkSize)
// whatever the worker count and whether or not the run was interrupted and
// resumed.
func RunCampaign(ctx context.Context, cfg Config, schemes []Scheme, opts CampaignOptions) (*Report, error) {
	// The config hash only guards snapshot compatibility; skip the
	// JSON+SHA-256 work for plain in-memory campaigns (Run calls this per
	// benchmark iteration).
	e, err := newEngine(cfg, schemes, opts, opts.CheckpointPath != "")
	if err != nil {
		return nil, err
	}
	opts = e.opts
	if opts.Resume && opts.CheckpointPath != "" {
		if err := e.load(opts.CheckpointPath); err != nil {
			return nil, err
		}
	}
	met := newCampaignMetrics(opts.Metrics, schemes)
	met.trialsRequested.Add(int64(opts.Trials))
	met.chunksTotal.Add(int64(e.run.Chunks()))
	met.errorBudget.Set(int64(opts.ErrorBudget))
	// Resumed progress is visible immediately, so live trials/s and
	// tallies start from the snapshot's frontier rather than zero.
	met.credit(e.run.Done().Count(), e.doneTrials, len(e.trialErrs), e.accum)

	// Each worker runs its chunks as one-chunk spans into the ChunkResult it
	// reuses, and merges them as Merger.Merge does.
	err = chunkrun.Run(ctx, e.run, chunkrun.Loop[*ChunkRunner]{
		Workers: opts.Workers,
		NewWorker: func() (*ChunkRunner, error) {
			w := newCampaignWorker(&e.cfg, e.schemes, opts.Seed, e.years, opts.oracle)
			// Per-trial and per-batch counters: single nil-safe atomic adds
			// (nil registry → nil counter → no-op).
			w.ev.SetTrialCounter(opts.Metrics.Counter("campaign.trials_evaluated"))
			w.lv.SetCounters(opts.Metrics.Counter("campaign.lane_batches"), opts.Metrics.Counter("campaign.lane_probes"))
			w.bg.setMetrics(opts.Metrics)
			return &ChunkRunner{e: e, w: w}, nil
		},
		Release: func(r *ChunkRunner) { r.w.release() },
		Chunk: func(ctx context.Context, r *ChunkRunner, c, _, _ int) bool {
			return r.runSpan(ctx, &r.res, c, c+1) == nil
		},
		Merge:   func(r *ChunkRunner, _ int) error { return e.mergeLocked(&r.res) },
		Merged:  func(r *ChunkRunner) { met.credit(1, r.res.Trials, len(r.res.Errors), r.res.Tallies) },
		OnChunk: opts.OnChunk,
	})
	e.run.Lock()
	defer e.run.Unlock()
	return e.reportLocked(), err
}

// mergeLocked folds one span result into the accumulator. It is the one
// path by which chunks enter it, for RunCampaign's workers and Merger
// alike: it validates the result's shape and trial accounting against the
// campaign config, rejects spans already merged, and enforces the
// aggregated trial-error budget after folding. Caller holds the run lock.
func (e *engine) mergeLocked(res *ChunkResult) error {
	if res.Lo < 0 || res.Hi <= res.Lo || res.Hi > e.run.Chunks() {
		return fmt.Errorf("faultsim: chunk span [%d, %d) out of range [0, %d)", res.Lo, res.Hi, e.run.Chunks())
	}
	if len(res.Tallies) != len(e.accum) {
		return fmt.Errorf("faultsim: result has %d scheme tallies, campaign has %d schemes", len(res.Tallies), len(e.accum))
	}
	for s := range res.Tallies {
		if len(res.Tallies[s].ByYear) != e.years {
			return fmt.Errorf("faultsim: scheme %d tally has %d year buckets, campaign has %d", s, len(res.Tallies[s].ByYear), e.years)
		}
	}
	flo, _ := e.run.Bounds(res.Lo)
	_, fhi := e.run.Bounds(res.Hi - 1)
	if want := uint64(fhi-flo) - uint64(len(res.Errors)); res.Trials != want {
		return fmt.Errorf("faultsim: span [%d, %d) reports %d trials, config implies %d", res.Lo, res.Hi, res.Trials, want)
	}
	done := e.run.Done()
	switch merged := done.CountIn(res.Lo, res.Hi); {
	case merged == res.Hi-res.Lo:
		return ErrDuplicateChunks
	case merged != 0:
		// Spans are fixed at job creation; a partial overlap means the
		// sender and the merger disagree about the unit layout.
		return fmt.Errorf("faultsim: span [%d, %d) partially merged (%d of %d chunks)", res.Lo, res.Hi, merged, res.Hi-res.Lo)
	}
	for s := range e.accum {
		e.accum[s].add(&res.Tallies[s])
	}
	for c := res.Lo; c < res.Hi; c++ {
		done.Set(c)
	}
	e.doneTrials += res.Trials
	e.trialErrs = append(e.trialErrs, res.Errors...)
	if len(e.trialErrs) > e.opts.ErrorBudget {
		return fmt.Errorf("%w: %d trials panicked (budget %d); first: %v",
			ErrErrorBudgetExceeded, len(e.trialErrs), e.opts.ErrorBudget, &e.trialErrs[0])
	}
	return nil
}

// snapshotLocked assembles the checkpoint payload. Caller holds the run
// lock. The payload is canonical: trial errors are sorted by trial index,
// so two engines that merged the same chunks — in any order, on any number
// of workers or machines — produce byte-identical snapshots.
func (e *engine) snapshotLocked() campaignSnapshot {
	names := make([]string, len(e.schemes))
	for i, s := range e.schemes {
		names[i] = s.Name()
	}
	sortTrialErrs(e.trialErrs)
	return campaignSnapshot{
		Trials:     e.opts.Trials,
		Seed:       e.opts.Seed,
		ChunkSize:  e.opts.ChunkSize,
		Years:      e.years,
		Schemes:    names,
		DoneChunks: e.run.Done().Words(),
		DoneTrials: e.doneTrials,
		Complete:   e.run.Complete(),
		Results:    e.accum,
		Errors:     e.trialErrs,
	}
}

// load seeds the accumulator from the checkpoint at path. A missing file
// leaves it empty; a snapshot of any other campaign is refused, and one of
// this very campaign written by the scalar generator is named as such: its
// stream differs from the batch generator's.
func (e *engine) load(path string) error {
	var snap campaignSnapshot
	err := e.run.Load(path, &snap, func() error { return e.restoreLocked(&snap, path) })
	if !errors.Is(err, checkpoint.ErrConfigMismatch) {
		return err
	}
	if scalar, herr := e.configHash(GenScalar); herr == nil && scalar != e.hash &&
		checkpoint.Load(path, checkpointKind, checkpointVersion, scalar, &campaignSnapshot{}) == nil {
		return fmt.Errorf("%w: %s was written by the scalar generator; campaigns now run the batch generator, which draws a different stream, so it cannot be resumed",
			checkpoint.ErrConfigMismatch, path)
	}
	return err
}

// restoreLocked seeds the accumulator from a loaded snapshot, validating
// the payload shape against the engine's own config. from names the source
// in errors. Caller holds the run lock.
func (e *engine) restoreLocked(snap *campaignSnapshot, from string) error {
	ok := len(snap.Results) == len(e.accum) && snap.Years == e.years
	for s := 0; ok && s < len(snap.Results); s++ {
		ok = len(snap.Results[s].ByYear) == e.years
	}
	if !ok || !e.run.Done().Restore(snap.DoneChunks) {
		// The config hash covers everything that shapes these; reaching
		// here means the snapshot lies about its own hash input.
		return fmt.Errorf("%w: %s payload shape does not match its config",
			checkpoint.ErrConfigMismatch, from)
	}
	e.doneTrials = snap.DoneTrials
	copy(e.accum, snap.Results)
	e.trialErrs = snap.Errors
	return nil
}

// reportLocked assembles the Report from the accumulator, trial errors in
// canonical order. Caller holds the run lock.
func (e *engine) reportLocked() *Report {
	sortTrialErrs(e.trialErrs)
	rep := &Report{
		Config:      e.cfg,
		Trials:      e.doneTrials,
		Requested:   uint64(e.opts.Trials),
		Years:       e.years,
		TrialErrors: append([]TrialError(nil), e.trialErrs...),
	}
	for s, scheme := range e.schemes {
		rep.Results = append(rep.Results, Result{
			SchemeName:     scheme.Name(),
			Trials:         e.doneTrials,
			Failures:       e.accum[s].Failures,
			DUEs:           e.accum[s].DUEs,
			SDCs:           e.accum[s].SDCs,
			FailuresByYear: append([]uint64(nil), e.accum[s].ByYear...),
		})
	}
	return rep
}

// campaignWorker holds one goroutine's reusable trial state plus the
// current chunk's tallies. Nothing here allocates per trial.
type campaignWorker struct {
	seed    uint64
	years   int
	ev      *Evaluator
	lv      *LaneEvaluator
	batch   *LaneBatch
	gen     *generator
	bg      *batchGenerator
	rng     *simrand.Source
	fast    bool
	oracle  *chunkOracle
	scratch *workerScratch

	chunk    int
	failures [][]uint64 // [scheme][year] first-failure buckets, this chunk; merge folds them cumulatively
	total    []uint64
	dues     []uint64
	sdcs     []uint64
	errs     []TrialError
}

// workerScratch is the part of a campaign worker that does not depend on
// the campaign: the batch plan's columns and the lane batch. Campaigns
// often run back to back (sweeps, sequential tests, benchmark ops), and
// recycling the scratch through scratchPool keeps each one's garbage, and
// the GC work it causes, down to its per-config tables.
type workerScratch struct {
	plan  planColumns
	batch LaneBatch
}

var scratchPool = sync.Pool{New: func() any { return new(workerScratch) }}

func newCampaignWorker(cfg *Config, schemes []Scheme, seed uint64, years int, oracle *chunkOracle) *campaignWorker {
	w := &campaignWorker{
		seed:    seed,
		years:   years,
		rng:     simrand.New(0),
		oracle:  oracle,
		scratch: scratchPool.Get().(*workerScratch),
	}
	w.batch = &w.scratch.batch
	// The lane engine falls back to the indexed Evaluator, and generation
	// is filtered by its classLive.
	w.ev = NewEvaluator(cfg, schemes)
	w.lv = NewLaneEvaluator(w.ev)
	w.gen = newRunGenerator(cfg, w.ev)
	w.bg = newBatchGenerator(w.gen)
	w.bg.planColumns = &w.scratch.plan
	w.fast = w.ev.EmptyTrialsSurvive()
	w.failures = make([][]uint64, len(schemes))
	for s := range w.failures {
		w.failures[s] = make([]uint64, years)
	}
	w.total = make([]uint64, len(schemes))
	w.dues = make([]uint64, len(schemes))
	w.sdcs = make([]uint64, len(schemes))
	return w
}

// release returns the worker's scratch to scratchPool; the worker must not
// run again.
func (w *campaignWorker) release() {
	scratchPool.Put(w.scratch)
	w.scratch, w.batch, w.bg = nil, nil, nil
}

// runChunk evaluates trials [lo, hi) of chunk c into the worker's tallies.
// It returns false if ctx cancelled mid-chunk (tallies must be discarded).
func (w *campaignWorker) runChunk(ctx context.Context, c, lo, hi int) bool {
	w.chunk = c
	// TrialError holds heap references (Faults slice, panic strings);
	// truncating without clearing would keep every past chunk's worst-case
	// error payloads reachable through the backing array.
	clear(w.errs)
	w.errs = w.errs[:0]
	for s := range w.total {
		w.total[s], w.dues[s], w.sdcs[s] = 0, 0, 0
		clear(w.failures[s])
	}
	// Substream (seed, c): the chunk's randomness is independent of which
	// worker runs it and of every other chunk.
	w.rng.SeedStream(w.seed, uint64(c))
	w.gen.resetEvents()
	if w.oracle != nil {
		return w.oracle.run(w, ctx, lo, hi)
	}
	return w.runBatchChunk(ctx, lo, hi)
}

// cancelCheckMask paces the intra-chunk ctx poll. Cancellation is normally
// drained at chunk boundaries; the intra-chunk check only matters for
// outsized custom ChunkSizes.
const cancelCheckMask = 1<<16 - 1

// flushBatch judges the pending lane batch and folds its failure masks
// into the chunk accumulators, popping mask bits instead of scanning
// per-trial outcomes. Voided (panicked) lanes are excluded from every
// scheme's tallies and recorded as TrialErrors.
func (w *campaignWorker) flushBatch() {
	b := w.batch
	if b.Lanes() == 0 {
		return
	}
	lv := w.lv
	lv.EvaluateBatch(b)
	valid := b.activeMask() &^ b.voided
	for s := range w.total {
		fm := lv.fail[s] & valid
		w.total[s] += uint64(bits.OnesCount64(fm))
		w.dues[s] += uint64(bits.OnesCount64(lv.due[s] & valid))
		w.sdcs[s] += uint64(bits.OnesCount64(lv.sdc[s] & valid))
		for m := fm; m != 0; m &= m - 1 {
			L := bits.TrailingZeros64(m)
			yr := int(lv.outs[s*LaneWidth+L].FailTime * invHoursPerYear)
			if yr >= w.years {
				yr = w.years - 1
			}
			w.failures[s][yr]++
		}
	}
	for m := b.voided; m != 0; m &= m - 1 {
		L := bits.TrailingZeros64(m)
		w.errs = append(w.errs, TrialError{
			Trial:      b.trial[L],
			Chunk:      w.chunk,
			RNGState:   b.state[L],
			Faults:     append([]FaultRecord(nil), b.LaneFaults(L)...),
			PanicValue: b.panicVal[L],
			Stack:      b.stack[L],
		})
	}
	b.Reset()
}
