package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one cell share Cell;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent, Cell int
	Name             string
	Start, End       time.Duration
	Args             map[string]string
}

// tracer keeps spans in memory for the traced run; they are written
// once at the end. A nil *tracer records nothing, so the untraced run
// executes the same code with no tracing cost beyond a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // IDs of the spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span. Its parent is the innermost open span, whose
// cell it shares; a root span takes the given cell ID.
func (t *tracer) begin(name string, cell int) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Cell: cell, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
		s.Cell = t.spans[s.Parent-1].Cell
	}
	t.open = append(t.open, s.ID)
	s.Start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) arg(id int, k, v string) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	if s.Args == nil {
		s.Args = map[string]string{}
	}
	s.Args[k] = v
}

// dur is a finished span's length in seconds.
func (t *tracer) dur(id int) float64 {
	s := &t.spans[id-1]
	return (s.End - s.Start).Seconds()
}

// mark returns the index of the next span, so selfTimes can cover the
// spans recorded since (one pass).
func (t *tracer) mark() int { return len(t.spans) }

// selfTimes sums, per span name, each span's duration minus the part
// covered by its direct children, over the spans recorded from index
// from onward. Children of one span never overlap: every traced call
// is made from the client's single goroutine.
func (t *tracer) selfTimes(from int) map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans[from:] {
		d := (s.End - s.Start).Seconds()
		self[s.Name] += d
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	return self
}

// writeChrome stores the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
