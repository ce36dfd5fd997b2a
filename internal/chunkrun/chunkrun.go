// Package chunkrun is the chunked, deterministic, resumable runner that
// faultsim.RunCampaign and fleet.Run share. A run divides Items units of
// work into fixed-size chunks; callers make chunk c a pure function of
// (config, seed, c) and fold chunks by integer addition. The runner owns
// the rest: the chunk queue, the done-chunk bitmap that resume restores,
// the merge lock, periodic and final checkpoints, and the first fatal
// error, which cancels every worker. The caller owns its worker, its
// chunk function, its accumulator and fold, its snapshot payload and
// shape check, and its metric names.
package chunkrun

import (
	"context"
	"errors"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/obs"
)

// Layout partitions Items units of work into chunks of Size.
type Layout struct {
	Items int
	Size  int
}

// Chunks returns the chunk count; the last chunk may be partial.
func (l Layout) Chunks() int { return (l.Items + l.Size - 1) / l.Size }

// Bounds returns the unit range [lo, hi) of chunk c.
func (l Layout) Bounds(c int) (lo, hi int) {
	lo = c * l.Size
	return lo, min(lo+l.Size, l.Items)
}

// Bitmap is a set of done chunks in checkpoint layout: chunk c at word c/64,
// bit c%64. It keeps its population count.
type Bitmap struct {
	words []uint64
	n     int
}

// Has reports whether chunk c is done.
func (b *Bitmap) Has(c int) bool { return b.words[c/64]&(1<<(c%64)) != 0 }

// Set marks chunk c done.
func (b *Bitmap) Set(c int) {
	if !b.Has(c) {
		b.words[c/64] |= 1 << (c % 64)
		b.n++
	}
}

// Count returns the number of done chunks.
func (b *Bitmap) Count() int { return b.n }

// CountIn returns the number of done chunks in [lo, hi).
func (b *Bitmap) CountIn(lo, hi int) int {
	n := 0
	for c := lo; c < hi; c++ {
		if b.Has(c) {
			n++
		}
	}
	return n
}

// Words returns a copy of the bitmap words, for a snapshot payload.
func (b *Bitmap) Words() []uint64 { return append([]uint64(nil), b.words...) }

// Restore replaces the set with a snapshot's words and recounts it. It
// reports false, leaving the set unchanged, if words has the wrong length.
func (b *Bitmap) Restore(words []uint64) bool {
	if len(words) != len(b.words) {
		return false
	}
	copy(b.words, words)
	b.n = 0
	for _, w := range b.words {
		b.n += bits.OnesCount64(w)
	}
	return true
}

// DefaultInterval spaces periodic saves when Checkpoint.Interval is unset.
const DefaultInterval = 30 * time.Second

// Checkpoint configures a Runner's snapshots.
type Checkpoint struct {
	// Path enables periodic and final saves when non-empty.
	Path string
	// Interval spaces periodic saves; <= 0 selects DefaultInterval.
	Interval time.Duration
	// Kind, Version and Hash frame the envelope (see package checkpoint).
	Kind    string
	Version int
	Hash    string
	// Snapshot returns the payload to save. It is called with the
	// runner's lock held.
	Snapshot func() any
	// Metrics, when non-nil, receives Prefix+".checkpoint.saves" and
	// Prefix+".checkpoint.save_ms".
	Metrics *obs.Registry
	Prefix  string
}

// Runner is one chunked run's shared state: the done set, checkpointing,
// and the first fatal error. Its Mutex guards the done set and the
// caller's accumulator; callers that merge outside Run (a distributed
// merger) take it too.
type Runner struct {
	Layout
	ck     Checkpoint
	saves  *obs.Counter
	saveMS *obs.Histogram

	sync.Mutex
	done     Bitmap
	lastSave time.Time
	failed   error
}

// New returns a Runner over layout with nothing done.
func New(layout Layout, ck Checkpoint) *Runner {
	if ck.Interval <= 0 {
		ck.Interval = DefaultInterval
	}
	return &Runner{
		Layout: layout,
		ck:     ck,
		saves:  ck.Metrics.Counter(ck.Prefix + ".checkpoint.saves"),
		saveMS: ck.Metrics.Histogram(ck.Prefix+".checkpoint.save_ms", []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000}),
		done:   Bitmap{words: make([]uint64, (layout.Chunks()+63)/64)},
	}
}

// Done returns the done set. Caller holds the lock.
func (r *Runner) Done() *Bitmap { return &r.done }

// Complete reports whether every chunk is done. Caller holds the lock.
func (r *Runner) Complete() bool { return r.done.n == r.Chunks() }

// Load reads the checkpoint at path into snap and, with the lock held,
// calls restore to check its shape and seed the accumulator (restoring
// the done set with Done().Restore). A missing file leaves everything
// untouched and returns nil.
func (r *Runner) Load(path string, snap any, restore func() error) error {
	err := checkpoint.Load(path, r.ck.Kind, r.ck.Version, r.ck.Hash, snap)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	r.Lock()
	defer r.Unlock()
	return restore()
}

// saveLocked writes the snapshot to the checkpoint path. Caller holds the
// lock.
func (r *Runner) saveLocked() error {
	start := time.Now()
	if err := checkpoint.Save(r.ck.Path, r.ck.Kind, r.ck.Version, r.ck.Hash, r.ck.Snapshot()); err != nil {
		return err
	}
	r.saves.Inc()
	r.saveMS.Observe(float64(time.Since(start).Microseconds()) / 1e3)
	r.lastSave = time.Now()
	return nil
}

// Loop is what a caller plugs into Run. W is one goroutine's reusable
// worker state.
type Loop[W any] struct {
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS. It is
	// clamped to the chunk count.
	Workers int
	// NewWorker builds one goroutine's worker. An error is fatal.
	NewWorker func() (W, error)
	// Release, when non-nil, runs when a worker goroutine exits.
	Release func(W)
	// Chunk runs chunk c, units [lo, hi), on w. It returns false if ctx
	// cancelled it mid-chunk; the chunk is then not merged.
	Chunk func(ctx context.Context, w W, c, lo, hi int) bool
	// Merge folds w's completed chunk c into the caller's accumulator and
	// marks c in Done(), with the lock held. A non-nil error is fatal.
	Merge func(w W, c int) error
	// Merged, when non-nil, runs after each Merge without the lock (live
	// metrics).
	Merged func(w W)
	// OnChunk, when non-nil, observes the done and total chunk counts
	// after each merge and once at startup when resuming. Calls are
	// serialised.
	OnChunk func(done, total int)
}

// Run drives the chunks the done set lacks through l until they are all
// merged, ctx is cancelled or an error is fatal. With a checkpoint path it
// saves periodically and once more at the end. The error is the first of:
// a fatal merge or save, a failed NewWorker, ctx's error, the final save's
// error. The caller's accumulator then holds every merged chunk.
func Run[W any](ctx context.Context, r *Runner, l Loop[W]) error {
	r.Lock()
	done := r.done.n
	r.lastSave = time.Now()
	r.Unlock()
	if l.OnChunk != nil && done > 0 {
		l.OnChunk(done, r.Chunks())
	}

	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, r.Chunks())
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &loopState[W]{Loop: l, r: r, cancel: cancel}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(wctx)
		}()
	}
	wg.Wait()

	r.Lock()
	defer r.Unlock()
	err := r.failed
	if err == nil {
		err = s.workerErr
	}
	if err == nil {
		err = ctx.Err()
	}
	if r.ck.Path != "" {
		// Final snapshot: complete on success, the partial frontier on
		// cancellation, so a later resume continues (or short-circuits).
		if serr := r.saveLocked(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// loopState is one Run's scheduling state.
type loopState[W any] struct {
	Loop[W]
	r      *Runner
	cancel context.CancelFunc
	next   atomic.Int64 // work queue: chunk indices in [0, Chunks)

	workerErr error      // first failed NewWorker, under r's lock
	onChunkMu sync.Mutex // serialises OnChunk
}

// work builds a worker and pulls chunk indices until the queue drains, ctx
// cancels or a merge reports a fatal error.
func (s *loopState[W]) work(ctx context.Context) {
	w, err := s.NewWorker()
	if err != nil {
		s.r.Lock()
		if s.workerErr == nil {
			s.workerErr = err
		}
		s.r.Unlock()
		s.cancel()
		return
	}
	if s.Release != nil {
		defer s.Release(w)
	}
	for ctx.Err() == nil {
		c := int(s.next.Add(1)) - 1
		if c >= s.r.Chunks() {
			return
		}
		if s.chunkDone(c) {
			continue
		}
		lo, hi := s.r.Bounds(c)
		if !s.Chunk(ctx, w, c, lo, hi) || !s.merge(w, c) {
			return
		}
	}
}

// chunkDone reports whether a resumed run's snapshot already covers c.
// Chunks are claimed uniquely through next, so a done chunk here was
// merged before this run started.
func (s *loopState[W]) chunkDone(c int) bool {
	s.r.Lock()
	defer s.r.Unlock()
	return s.r.done.Has(c)
}

// merge folds w's chunk c, advances the checkpoint clock and reports
// progress. It returns false when the run has failed and the worker
// should stop.
func (s *loopState[W]) merge(w W, c int) bool {
	r := s.r
	r.Lock()
	if err := s.Merge(w, c); err != nil && r.failed == nil {
		r.failed = err
	}
	done := r.done.n
	if r.ck.Path != "" && time.Since(r.lastSave) >= r.ck.Interval {
		if err := r.saveLocked(); err != nil && r.failed == nil {
			r.failed = err
		}
	}
	failed := r.failed
	r.Unlock()

	if s.Merged != nil {
		s.Merged(w)
	}
	if s.OnChunk != nil {
		// Serialised without holding the accumulator lock across user
		// code.
		s.onChunkMu.Lock()
		s.OnChunk(done, r.Chunks())
		s.onChunkMu.Unlock()
	}
	if failed != nil {
		s.cancel()
		return false
	}
	return true
}
