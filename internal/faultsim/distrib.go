package faultsim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"xedsim/internal/checkpoint"
)

// This file is the campaign engine's distribution seam: the chunk-level
// primitives a coordinator/worker deployment is built from. RunCampaign
// stays the single-process front door; a distributed run decomposes into
//
//	ChunkRunner — a worker-side executor that evaluates any contiguous
//	              span of chunks and returns its integer tallies, and
//	Merger      — a coordinator-side accumulator that folds ChunkResults
//	              (in any arrival order, rejecting duplicates) into the
//	              same state RunCampaign builds in-process.
//
// Both are thin views over the same engine internals, which is what makes
// the headline invariant cheap to state and test: for a fixed (Config,
// schemes, Trials, Seed, ChunkSize), a Merger that has merged every chunk
// exactly once holds byte-identical checkpoint snapshots — and therefore
// bit-identical Reports — to a local RunCampaign, no matter how chunks
// were partitioned, scheduled, retried or duplicated in between. Chunk
// streams are pure functions of (seed, chunk index) and tallies compose by
// integer addition, so the only failure mode left to defend against is
// double-merging, which Merger.Merge rejects by chunk bitmap.

// ErrDuplicateChunks reports a merge of a span whose chunks were all
// already merged — the expected outcome of retries and duplicated
// deliveries, surfaced as a distinct sentinel so callers can acknowledge
// idempotently rather than fail.
var ErrDuplicateChunks = errors.New("faultsim: chunk span already merged")

// ChunkResult is one worker's tallies over the contiguous chunk span
// [Lo, Hi): the wire unit of a distributed campaign. It is self-describing
// enough for the Merger to validate shape and trial accounting before
// trusting it.
type ChunkResult struct {
	// Lo and Hi bound the chunk span [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Trials counts the tallied trials in the span: the span's trial range
	// minus the voided (panicked) ones listed in Errors.
	Trials uint64 `json:"trials"`
	// Tallies holds one SchemeTally per campaign scheme, in scheme order.
	Tallies []SchemeTally `json:"tallies"`
	// Errors lists the span's voided trials.
	Errors []TrialError `json:"errors,omitempty"`
}

// CampaignHash returns the config hash guarding checkpoint compatibility
// for a campaign shaped by (cfg, schemes, Trials, Seed, ChunkSize) and the
// batch generator — the same hash RunCampaign stamps into snapshots.
// Distributed deployments use it as the job identity: two submissions
// hashing equal are the same campaign and produce bit-identical results,
// so a completed result can be served from cache.
func CampaignHash(cfg Config, schemes []Scheme, opts CampaignOptions) (string, error) {
	e, err := newEngine(cfg, schemes, opts, true)
	if err != nil {
		return "", err
	}
	return e.hash, nil
}

// ChunkRunner evaluates chunk spans of one campaign on behalf of a remote
// coordinator. It is single-goroutine (one runner per worker loop) and
// reuses all per-trial state across spans, exactly like a RunCampaign
// worker goroutine. Trial panics are voided and reported in the
// ChunkResult; generation panics propagate (they cannot be contained
// without desynchronising the RNG stream).
type ChunkRunner struct {
	e   *engine
	w   *campaignWorker
	res ChunkResult // reused chunk after chunk by RunCampaign's workers
}

// NewChunkRunner builds a runner for the campaign shaped by (cfg, schemes,
// opts). Only Trials, Seed, ChunkSize and ErrorBudget of opts are
// meaningful here; scheduling fields (Workers, CheckpointPath, OnChunk,
// Metrics) belong to the caller's loop.
func NewChunkRunner(cfg Config, schemes []Scheme, opts CampaignOptions) (*ChunkRunner, error) {
	e, err := newEngine(cfg, schemes, opts, true)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{
		e: e,
		w: newCampaignWorker(&e.cfg, e.schemes, e.opts.Seed, e.years, e.opts.oracle),
	}, nil
}

// Hash returns the campaign's config hash (the job identity).
func (r *ChunkRunner) Hash() string { return r.e.hash }

// NumChunks returns the campaign's total chunk count.
func (r *ChunkRunner) NumChunks() int { return r.e.run.Chunks() }

// RunSpan evaluates chunks [lo, hi) and returns their tallies. It honours
// ctx at sub-chunk granularity: a cancellation mid-span returns ctx's
// error and no result (partial spans must never be merged). Spans are
// independent — any partition of [0, NumChunks) into spans, run in any
// order on any number of runners, yields tallies that merge to the same
// campaign state.
func (r *ChunkRunner) RunSpan(ctx context.Context, lo, hi int) (*ChunkResult, error) {
	res := new(ChunkResult)
	if err := r.runSpan(ctx, res, lo, hi); err != nil {
		return nil, err
	}
	return res, nil
}

// runSpan is RunSpan into res, reusing its storage: the one place a
// worker's chunk tallies become SchemeTallys.
func (r *ChunkRunner) runSpan(ctx context.Context, res *ChunkResult, lo, hi int) error {
	e := r.e
	if lo < 0 || hi <= lo || hi > e.run.Chunks() {
		return fmt.Errorf("faultsim: chunk span [%d, %d) out of range [0, %d)", lo, hi, e.run.Chunks())
	}
	res.Lo, res.Hi, res.Trials = lo, hi, 0
	if len(res.Tallies) != len(e.schemes) {
		res.Tallies = make([]SchemeTally, len(e.schemes))
		for s := range res.Tallies {
			res.Tallies[s].ByYear = make([]uint64, e.years)
		}
	}
	for s := range res.Tallies {
		t := &res.Tallies[s]
		t.Failures, t.DUEs, t.SDCs = 0, 0, 0
		clear(t.ByYear)
	}
	// TrialError holds heap references; clear before truncating so a
	// reused result does not keep past spans' error payloads reachable.
	clear(res.Errors)
	res.Errors = res.Errors[:0]
	for c := lo; c < hi; c++ {
		tlo, thi := e.run.Bounds(c)
		if !r.w.runChunk(ctx, c, tlo, thi) {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("faultsim: chunk %d aborted", c)
		}
		for s := range res.Tallies {
			res.Tallies[s].Failures += r.w.total[s]
			res.Tallies[s].DUEs += r.w.dues[s]
			res.Tallies[s].SDCs += r.w.sdcs[s]
			// Worker chunk tallies are first-failure buckets (see
			// campaignWorker.failures); the wire format stays cumulative.
			var run uint64
			for y := range res.Tallies[s].ByYear {
				run += r.w.failures[s][y]
				res.Tallies[s].ByYear[y] += run
			}
		}
		res.Trials += uint64(thi-tlo) - uint64(len(r.w.errs))
		res.Errors = append(res.Errors, r.w.errs...)
	}
	return nil
}

// Merger folds ChunkResults into campaign state equivalent to a local
// RunCampaign over the same chunks. It is safe for concurrent use; every
// method takes the campaign's run lock. Duplicate spans are rejected (not
// double-counted), which is what makes merging idempotent under retries,
// duplicated deliveries and lease re-dispatch.
type Merger struct {
	e *engine
}

// NewMerger builds a merger for the campaign shaped by (cfg, schemes,
// opts). Trials, Seed, ChunkSize and ErrorBudget are meaningful; the
// error budget is enforced across all merged spans, aggregating voided
// trials from every worker.
func NewMerger(cfg Config, schemes []Scheme, opts CampaignOptions) (*Merger, error) {
	e, err := newEngine(cfg, schemes, opts, true)
	if err != nil {
		return nil, err
	}
	return &Merger{e: e}, nil
}

// Hash returns the campaign's config hash (the job identity).
func (m *Merger) Hash() string { return m.e.hash }

// NumChunks returns the campaign's total chunk count.
func (m *Merger) NumChunks() int { return m.e.run.Chunks() }

// ChunkSize returns the normalized trials-per-chunk granularity.
func (m *Merger) ChunkSize() int { return m.e.opts.ChunkSize }

// DoneChunks returns how many chunks have been merged.
func (m *Merger) DoneChunks() int {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.run.Done().Count()
}

// DoneTrials returns how many trials have been tallied (voided trials
// excluded).
func (m *Merger) DoneTrials() uint64 {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.doneTrials
}

// TrialErrorCount returns the voided-trial total across all merged spans.
func (m *Merger) TrialErrorCount() int {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return len(m.e.trialErrs)
}

// Complete reports whether every chunk has been merged.
func (m *Merger) Complete() bool {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.run.Complete()
}

// SpanMerged reports whether every chunk of [lo, hi) has been merged.
func (m *Merger) SpanMerged(lo, hi int) bool {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.run.Done().CountIn(lo, hi) == hi-lo
}

// Merge folds one span result into the campaign. It validates the result's
// shape and trial accounting against the campaign config, rejects
// duplicates with ErrDuplicateChunks (callers treat that as a successful
// no-op acknowledgement), and enforces the aggregated trial-error budget —
// a budget breach returns ErrErrorBudgetExceeded after folding. RunCampaign
// merges each of its chunks the same way.
func (m *Merger) Merge(res *ChunkResult) error {
	if res == nil {
		return fmt.Errorf("faultsim: nil chunk result")
	}
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.mergeLocked(res)
}

// Report assembles the campaign Report from the merged state — for a
// Complete merger, bit-identical to the local RunCampaign Report.
func (m *Merger) Report() *Report {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	return m.e.reportLocked()
}

// SnapshotBytes returns the merged state as canonical checkpoint envelope
// bytes — exactly what RunCampaign's Save writes for the same state, which
// is how distributed results are proven bit-identical: compare these bytes
// against a local run's checkpoint file.
func (m *Merger) SnapshotBytes() ([]byte, error) {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	snap := m.e.snapshotLocked()
	return checkpoint.Marshal(checkpointKind, checkpointVersion, m.e.hash, &snap)
}

// Save writes the merged state to path in the campaign checkpoint format
// (atomic + durable, config-hash-guarded). A saved merger can be restored
// by Load — or resumed by a local RunCampaign with the same config, which
// is the escape hatch when a coordinator is retired mid-job.
func (m *Merger) Save(path string) error {
	m.e.run.Lock()
	defer m.e.run.Unlock()
	snap := m.e.snapshotLocked()
	return checkpoint.Save(path, checkpointKind, checkpointVersion, m.e.hash, &snap)
}

// Load restores merged state from a checkpoint written by Save (or by a
// local RunCampaign of the same campaign). A missing file leaves the
// merger empty and returns nil; a snapshot from any other configuration is
// refused with the checkpoint sentinel errors.
func (m *Merger) Load(path string) error { return m.e.load(path) }

// sortTrialErrs orders trial errors canonically (by trial index).
func sortTrialErrs(errs []TrialError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Trial < errs[j].Trial })
}
