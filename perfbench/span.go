package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Spans of one request or job share a Trace id; Parent links a
// span to the span that caused it (0 = root).
type Span struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Trace   string            `json:"trace,omitempty"`
	Layer   string            `json:"layer"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span; End closes it and records it. Start on a nil
// tracer returns a nil handle whose End is a no-op.
func (t *Tracer) Start(parent *Open, trace, layer, name string) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &Open{t: t, span: Span{ID: id, Trace: trace, Layer: layer, Name: name}, start: time.Now()}
	if parent != nil {
		o.span.Parent = parent.span.ID
	}
	return o
}

// Record adds an already-timed span (for intervals measured by the
// program itself, such as server-side job phases or event gaps).
func (t *Tracer) Record(trace, layer, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := Span{ID: t.next, Trace: trace, Layer: layer, Name: name, Attrs: attrs}
	s.StartNS = start.Sub(t.epoch).Nanoseconds()
	s.EndNS = s.StartNS + d.Nanoseconds()
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations, in milliseconds, of every recorded
// span with the given layer and name.
func (t *Tracer) Durations(layer, name string) []float64 {
	var out []float64
	for _, s := range t.Spans() {
		if s.Layer == layer && s.Name == name {
			out = append(out, ms(s.Duration()))
		}
	}
	return out
}

// WriteFile writes every span as one JSON document, with the run's
// stamp, to path.
func (t *Tracer) WriteFile(path string, stamp Stamp) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Stamp Stamp  `json:"stamp"`
		Spans []Span `json:"spans"`
	}{stamp, t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Open is a span in progress.
type Open struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Attr annotates the span.
func (o *Open) Attr(k, v string) {
	if o == nil {
		return
	}
	if o.span.Attrs == nil {
		o.span.Attrs = make(map[string]string)
	}
	o.span.Attrs[k] = v
}

// End closes and records the span.
func (o *Open) End() {
	if o == nil {
		return
	}
	end := time.Now()
	o.span.StartNS = o.start.Sub(o.t.epoch).Nanoseconds()
	o.span.EndNS = end.Sub(o.t.epoch).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
}
