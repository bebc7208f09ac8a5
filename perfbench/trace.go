package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one span around
// each call the benchmark makes into a layer. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one request or job share ID; Lane
// groups spans that ran on the same client or worker goroutine.
type span struct {
	Name  string
	Cat   string
	ID    string
	Lane  int
	Start time.Duration
	Dur   time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, cat, id string, lane int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Cat: cat, ID: id, Lane: lane,
			Start: start.Sub(t.t0), Dur: end.Sub(start)})
		t.mu.Unlock()
	}
}

// durations returns the durations, in milliseconds, of every span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.Dur))
		}
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeJSON renders the spans as a Chrome trace-event document.
func (t *tracer) chromeJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := chromeEvent{Name: s.Name, Cat: s.Cat, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane}
		if s.ID != "" {
			ev.Args = map[string]string{"id": s.ID}
		}
		evs = append(evs, ev)
	}
	return json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// write stores the trace at path.
func (t *tracer) write(path string) error {
	b, err := t.chromeJSON()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
