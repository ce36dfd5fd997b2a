package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span that caused this one (0 for an op's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"` // filled by selfTimes
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing: untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int64, op int) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans with self times filled in.
// A child that outlives its parent, such as a worker round trip still in
// flight when the client returns, is clipped to the parent's interval: the
// part outside did not delay the parent. Parents begin before their
// children, so one pass in ID order clips every span against an already
// clipped parent.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := make([]span, 0, len(t.spans))
	pos := make(map[int64]int, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if i, ok := pos[s.Parent]; ok {
			p := out[i]
			s.Start = min(max(s.Start, p.Start), p.End)
			s.End = max(min(s.End, p.End), s.Start)
		}
		pos[s.ID] = len(out)
		out = append(out, s)
	}
	t.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's SelfNS: its duration minus the part of its
// interval that its children cover. Children can run on other goroutines
// and overlap each other, so the covered part is the union of their
// intervals.
func selfTimes(spans []span) {
	idx := make(map[int64]int, len(spans))
	for i := range spans {
		idx[spans[i].ID] = i
	}
	type iv struct{ lo, hi int64 }
	kids := make(map[int64][]iv)
	for i := range spans {
		if spans[i].Parent == 0 {
			continue
		}
		if _, ok := idx[spans[i].Parent]; ok {
			kids[spans[i].Parent] = append(kids[spans[i].Parent], iv{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		var covered, hi int64 = 0, s.Start
		for _, c := range cs {
			lo, end := max(c.lo, hi), min(c.hi, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.SelfNS = (s.End - s.Start) - covered
	}
}

// layerSelf sums self time per span name.
func layerSelf(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.SelfNS)
	}
	return out
}

// durations returns the durations of the spans named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// timed runs fn inside a span named name and returns fn's duration.
func (t *tracer) timed(name string, parent int64, op int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id)
	return d, err
}
