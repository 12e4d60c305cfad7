package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder is the benchmark's own in-memory span store. Spans are recorded
// from the benchmark's files around the calls into each layer; a nil recorder
// is tracing switched off, and every method is then a no-op.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed interval: Parent is the index of the span that caused it
// (-1 for a root) and Op the identifier shared by all spans of one operation.
type span struct {
	Name       string
	Start, End time.Duration // since recorder.t0
	Parent     int
	Op         int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its index for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span rebuilt after the fact (a run record's queue wait and
// execution time, laid out inside the request span that carried them).
func (r *recorder) add(name string, start, dur time.Duration, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + dur, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// selfMillis returns, per span name, the summed self time in milliseconds:
// a span's duration minus the part of it its child spans cover.
func (r *recorder) selfMillis() map[string]float64 {
	self := map[string]float64{}
	if r == nil {
		return self
	}
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		d := s.End - s.Start - covered[i]
		if d < 0 {
			d = 0
		}
		self[s.Name] += millis(d)
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events;
// one track per operation) for chrome://tracing or Perfetto.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Op,
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
