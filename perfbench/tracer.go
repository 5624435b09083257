package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public entry point, made from
// the benchmark's own code.  Spans of one op or request share Op; Parent
// is the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans kept for the trace file; durations of
// every span still feed the per-layer metrics.
const maxKeptSpans = 200_000

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	durs    map[string][]float64 // every span's duration in ms, by name
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), durs: map[string][]float64{}}
}

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// add records the span id that ran from start to end.
func (t *tracer) add(id, parent, op uint64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], ms(end.Sub(start)))
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{id, parent, op, name, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
}

// record is add for a span with a fresh id; it returns the id.
func (t *tracer) record(parent, op uint64, name string, start, end time.Time) uint64 {
	id := t.id()
	t.add(id, parent, op, name, start, end)
	return id
}

// ms returns the durations recorded under name, in milliseconds.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// write saves the kept spans as JSON lines after a header line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]int{"spans": len(t.spans), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
