package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`   // request: stream position or query index
	Round  int32  `json:"round"` // replay round (-1 in the closed loop)
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. It is not safe for concurrent use:
// each goroutine that traces owns one. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	round  int32
	spans  []span
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, round: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return noParent
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Round: t.round, ID: id, Parent: parent,
		Start: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// call runs fn inside a span.
func (t *tracer) call(name string, req int64, parent int32, fn func()) {
	id := t.begin(name, req, parent)
	fn()
	t.end(id)
}

// writeSpans writes every tracer's spans as JSON lines, tagging each
// with its tracer's index.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{k, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageTimes sums span durations by name and round, for the replay
// rounds >= 1 (round 0 warms caches and is not counted).
func stageTimes(t *tracer) map[string]map[int32]float64 {
	out := map[string]map[int32]float64{}
	for _, s := range t.spans {
		if s.Round < 1 {
			continue
		}
		m := out[s.Name]
		if m == nil {
			m = map[int32]float64{}
			out[s.Name] = m
		}
		m[s.Round] += float64(s.End - s.Start)
	}
	return out
}
