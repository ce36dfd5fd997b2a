package chunkrun

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/obs"
)

func TestLayoutBounds(t *testing.T) {
	l := Layout{Items: 10, Size: 4}
	if l.Chunks() != 3 {
		t.Fatalf("Chunks = %d, want 3", l.Chunks())
	}
	for c, want := range [][2]int{{0, 4}, {4, 8}, {8, 10}} {
		if lo, hi := l.Bounds(c); lo != want[0] || hi != want[1] {
			t.Errorf("Bounds(%d) = [%d, %d), want [%d, %d)", c, lo, hi, want[0], want[1])
		}
	}
}

func TestBitmap(t *testing.T) {
	b := Bitmap{words: make([]uint64, 3)}
	for _, c := range []int{0, 63, 64, 129, 64} {
		b.Set(c)
	}
	if b.Count() != 4 || !b.Has(64) || b.Has(1) {
		t.Fatalf("Count %d Has(64) %v Has(1) %v, want 4 true false", b.Count(), b.Has(64), b.Has(1))
	}
	if got := b.CountIn(60, 70); got != 2 {
		t.Errorf("CountIn(60, 70) = %d, want 2", got)
	}
	r := Bitmap{words: make([]uint64, 3)}
	if !r.Restore(b.Words()) || r.Count() != 4 || !r.Has(129) {
		t.Errorf("restored set has count %d, want the popcount 4", r.Count())
	}
	if r.Restore([]uint64{1}) || r.Count() != 4 {
		t.Error("Restore accepted words of the wrong length")
	}
}

// sumState is a toy accumulator: the sum of chunk indices plus one.
type sumState struct {
	r   *Runner
	sum int
}

func (s *sumState) loop(workers int) Loop[*int] {
	return Loop[*int]{
		Workers:   workers,
		NewWorker: func() (*int, error) { return new(int), nil },
		Chunk: func(_ context.Context, w *int, c, _, _ int) bool {
			*w = c + 1
			return true
		},
		Merge: func(w *int, c int) error {
			s.sum += *w
			s.r.Done().Set(c)
			return nil
		},
	}
}

func newSum(t *testing.T, chunks int, ck Checkpoint) *sumState {
	t.Helper()
	s := &sumState{}
	ck.Kind, ck.Version = "chunkrun-test", 1
	ck.Snapshot = func() any { return struct{ Done []uint64 }{s.r.Done().Words()} }
	s.r = New(Layout{Items: chunks, Size: 1}, ck)
	return s
}

// TestRunMergesEveryChunkOnce: at any worker count every chunk is merged
// exactly once, and OnChunk sees each count from 1 to the total.
func TestRunMergesEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 200} {
		s := newSum(t, 100, Checkpoint{})
		l := s.loop(workers)
		seen := map[int]bool{}
		l.OnChunk = func(done, total int) { seen[done] = total == 100 }
		if err := Run(context.Background(), s.r, l); err != nil {
			t.Fatal(err)
		}
		if s.sum != 100*101/2 || !s.r.Complete() || len(seen) != 100 || !seen[100] {
			t.Errorf("workers %d: sum %d complete %v progress calls %d", workers, s.sum, s.r.Complete(), len(seen))
		}
	}
}

// TestRunSkipsRestoredChunks: a resumed run reports its frontier once at
// startup and merges only the chunks the done set lacks.
func TestRunSkipsRestoredChunks(t *testing.T) {
	s := newSum(t, 100, Checkpoint{})
	for c := 0; c < 50; c++ {
		s.r.Done().Set(c)
	}
	l := s.loop(3)
	var first int
	l.OnChunk = func(done, _ int) {
		if first == 0 {
			first = done
		}
	}
	if err := Run(context.Background(), s.r, l); err != nil {
		t.Fatal(err)
	}
	if first != 50 || s.sum != 100*101/2-50*51/2 {
		t.Errorf("first progress %d, sum %d: restored chunks were re-run or not reported", first, s.sum)
	}
}

// TestRunErrorPrecedence: a fatal merge error outranks the cancellation it
// causes, a failed worker outranks ctx, and both still end in a final save.
func TestRunErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "ck")

	s := newSum(t, 100, Checkpoint{Path: path, Interval: time.Hour})
	l := s.loop(2)
	merge := l.Merge
	l.Merge = func(w *int, c int) error {
		merge(w, c)
		if s.r.Done().Count() == 10 {
			return boom
		}
		return nil
	}
	if err := Run(context.Background(), s.r, l); !errors.Is(err, boom) {
		t.Fatalf("merge failure: err = %v, want boom", err)
	}
	if s.r.Complete() {
		t.Error("a fatal merge error did not stop the run")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("no final save after a failed run: %v", err)
	}

	s = newSum(t, 100, Checkpoint{})
	l = s.loop(4)
	var built atomic.Int32
	l.NewWorker = func() (*int, error) {
		if built.Add(1) == 2 {
			return nil, boom
		}
		return new(int), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, s.r, l); !errors.Is(err, boom) {
		t.Fatalf("worker failure: err = %v, want boom over ctx's error", err)
	}
}

// TestRunCheckpoints: with a path the runner saves periodically and at the
// end, times every save, and Load restores the done set by popcount.
func TestRunCheckpoints(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "ck")
	s := newSum(t, 20, Checkpoint{Path: path, Interval: time.Nanosecond, Metrics: reg, Prefix: "toy"})
	if err := Run(context.Background(), s.r, s.loop(1)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if saves := snap.Counters["toy.checkpoint.saves"]; saves != 21 || snap.Histograms["toy.checkpoint.save_ms"].Count != saves {
		t.Errorf("saves %d, save_ms count %d; want 20 periodic plus the final one",
			saves, snap.Histograms["toy.checkpoint.save_ms"].Count)
	}

	r := newSum(t, 20, Checkpoint{Path: path}).r
	var payload struct{ Done []uint64 }
	if err := r.Load(path, &payload, func() error {
		if !r.Done().Restore(payload.Done) {
			return errors.New("shape")
		}
		return nil
	}); err != nil || !r.Complete() {
		t.Fatalf("Load: err %v, complete %v", err, r.Complete())
	}
	other := New(Layout{Items: 20, Size: 1}, Checkpoint{Kind: "chunkrun-test", Version: 1, Hash: "other"})
	if err := other.Load(path, &payload, func() error { return nil }); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Errorf("Load under another hash: err = %v, want ErrConfigMismatch", err)
	}
	if err := other.Load(filepath.Join(t.TempDir(), "missing"), &payload, func() error {
		return errors.New("restore called")
	}); err != nil {
		t.Errorf("Load of a missing file: err = %v, want nil", err)
	}
}
