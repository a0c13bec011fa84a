package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Start and End are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the measured paths pay one
// nil check.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span ID before the span ends, so children recorded
// earlier (a server handler inside a client call) can name their parent.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (t *Tracer) Record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes maps every span ID to its self time: its duration minus the
// part of its interval that child spans cover. Overlapping children
// (concurrent work under one parent) are merged before subtraction, and
// children are clipped to the parent, so self time is never negative
// and never double-counts.
func selfTimes(spans []Span) map[int64]time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered := int64(0)
		cur := iv{lo: -1, hi: -1}
		flush := func() {
			if cur.hi > cur.lo {
				covered += cur.hi - cur.lo
			}
		}
		for _, k := range kids {
			lo, hi := max(k.lo, s.Start), min(k.hi, s.End)
			if hi <= lo {
				continue
			}
			if cur.hi < 0 || lo > cur.hi {
				flush()
				cur = iv{lo, hi}
				continue
			}
			cur.hi = max(cur.hi, hi)
		}
		flush()
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanDurations collects the durations of every span with the given
// name.
func spanDurations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}
