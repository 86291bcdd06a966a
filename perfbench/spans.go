package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval around a call into the damq facade. Spans
// of one traced run share the tracer's run id; parent 0 is the root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int32  `json:"calls,omitempty"`
}

// tracer keeps spans in memory; flush writes them once the run is over.
// A nil *tracer records nothing, so the untraced run pays one nil check
// per facade call.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	// dropped counts spans not kept because the log was full.
	dropped int
}

func newTracer(run string, capacity int) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (0 on a nil tracer or a full log).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: now, End: now})
	return int32(len(t.spans))
}

// end closes span id; calls > 1 marks a span covering a batch of calls.
func (t *tracer) end(id int32, calls int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	if calls > 1 {
		s.Calls = int32(calls)
	}
}

// flush writes the spans as JSON lines to path, headed by one line with
// the run id and the machine fingerprint.
func (t *tracer) flush(path string, machine map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"run": t.run, "machine": machine, "spans": len(t.spans), "dropped": t.dropped}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
