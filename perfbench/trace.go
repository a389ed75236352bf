package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls.  Spans of one job share the job's root span as
// Parent.
type span struct {
	ID, Parent int64
	Lane       int
	Name       string
	Start, End time.Time
	Job        string
}

// tracer keeps spans in memory for the Chrome trace written when the run
// ends.  A nil *tracer records nothing, so untraced code paths pay only a
// nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
	lanes map[int]string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[int]string{}} }

// newID reserves a span ID, so a parent span can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// lane names a trace row (a client, a worker, the store).
func (t *tracer) lane(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes[id] = name
}

// add records a finished span; id 0 allocates a fresh ID.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.ids++
		s.ID = t.ids
	}
	t.spans = append(t.spans, s)
}

// write saves the spans as a Chrome trace (one row per lane).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := telemetry.NewTraceBuilder()
	b.SetMeta("generator", "perfbench")
	b.Process(0, "perfbench")
	lanes := make([]int, 0, len(t.lanes))
	for id := range t.lanes {
		lanes = append(lanes, id)
	}
	sort.Ints(lanes)
	for _, id := range lanes {
		b.Thread(0, id, t.lanes[id])
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		b.Span(0, s.Lane, s.Name, "layer", s.Start.Sub(t.t0).Microseconds(), s.End.Sub(s.Start).Microseconds(), args)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
