package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// surface. Start and End are nanoseconds since the tracer was created;
// Parent is the index of the span that caused this one (-1 for a root);
// spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
}

// tracer appends spans to memory and writes them out when the workload
// ends. A nil *tracer records nothing, so the untraced run pays one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, layer string, parent, request int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is what the spans say about one layer: how many calls went
// into it and its self time — span durations minus the part their child
// spans cover.
type layerTime struct {
	Layer string
	Calls int
	Self  time.Duration
}

func (t *tracer) layerTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Calls++
		lt.Self += time.Duration(self[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
