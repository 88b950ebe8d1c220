package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one span in a recorded timeline, in the Chrome trace-event
// format ("ph":"X" complete events, plus "ph":"M" metadata for lane names).
// It is field-for-field the format cluster.TraceEvent already emits for a
// simulated step, extended with the optional Args map the format defines —
// so a job's fabric-level trace and a cell's step-level timeline open in the
// same chrome://tracing or Perfetto UI.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`            // microseconds since trace start
	Dur  float64           `json:"dur,omitempty"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Tracer records lifecycle spans against named lanes (one Perfetto thread
// row per lane — a fabric worker, a local engine slot, the queue). Spans
// carry wall-clock times; the tracer renders them as microsecond offsets
// from its creation instant. Safe for concurrent use; a nil Tracer ignores
// every call, so per-cell instrumentation costs one nil check when tracing
// is off.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	lanes  map[string]int
	events []TraceEvent
}

// NewTracer returns a tracer whose time origin is now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), lanes: map[string]int{}}
}

// laneLocked maps a lane name to its stable tid, emitting the Perfetto
// thread_name metadata event on first use.
func (t *Tracer) laneLocked(name string) int {
	if tid, ok := t.lanes[name]; ok {
		return tid
	}
	tid := len(t.lanes)
	t.lanes[name] = tid
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: tid,
		Args: map[string]string{"name": name},
	})
	return tid
}

// Span records one complete span on the named lane. Times before the
// tracer's origin clamp to it; an end before start records a zero-duration
// span. No-op on a nil Tracer.
func (t *Tracer) Span(lane, name, cat string, start, end time.Time, args map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if start.Before(t.t0) {
		start = t.t0
	}
	if end.Before(start) {
		end = start
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.t0)) / float64(time.Microsecond),
		Dur: float64(end.Sub(start)) / float64(time.Microsecond),
		PID: 1, TID: t.laneLocked(lane),
		Args: args,
	})
}

// Events returns a snapshot copy of the recorded events, in record order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// WriteChromeTrace serializes the snapshot as a Chrome trace JSON array —
// the same shape cluster.Timeline.WriteChromeTrace emits. A nil Tracer
// writes an empty array.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(events)
}
