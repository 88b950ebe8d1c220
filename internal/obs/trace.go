package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one span in a recorded timeline, in the Chrome trace-event
// format ("ph":"X" complete events, plus "ph":"M" metadata for lane names),
// with the optional Args map the format defines — so a job's fabric-level
// trace opens in chrome://tracing or Perfetto.
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
// from its creation instant. A span is kept as a typed record and becomes a
// TraceEvent, args map included, only when the trace is read. Safe for
// concurrent use; a nil Tracer ignores every call, so per-cell
// instrumentation costs one nil check when tracing is off.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	lanes map[string]int // lane name -> tid
	names []string       // lane names by tid
	spans []span
}

// span is one recorded span: its lane's tid, the caller's strings as
// passed, and its start and duration as offsets from t0.
type span struct {
	tid                    int
	name, cat, source, key string
	start, dur             time.Duration
}

// NewTracer returns a tracer whose time origin is now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), lanes: map[string]int{}}
}

// Span records one complete span on the named lane; the rendered event's
// args are {"owner": lane, "source": source, "key": key}. Times before the
// tracer's origin clamp to it; an end before start records a zero-duration
// span. No-op on a nil Tracer.
func (t *Tracer) Span(lane, name, cat, source, key string, start, end time.Time) {
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
	tid, ok := t.lanes[lane]
	if !ok {
		tid = len(t.names)
		t.lanes[lane] = tid
		t.names = append(t.names, lane)
	}
	t.spans = append(t.spans, span{
		tid: tid, name: name, cat: cat, source: source, key: key,
		start: start.Sub(t.t0), dur: end.Sub(start),
	})
}

// Events renders the recorded spans in record order, each lane's Perfetto
// thread_name metadata event just before its first span.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	events := make([]TraceEvent, 0, len(t.names)+len(t.spans))
	named := 0 // tids are handed out in first-use order
	for _, s := range t.spans {
		lane := t.names[s.tid]
		if s.tid == named {
			events = append(events, TraceEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: s.tid,
				Args: map[string]string{"name": lane},
			})
			named++
		}
		events = append(events, TraceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur) / float64(time.Microsecond),
			PID: 1, TID: s.tid,
			Args: map[string]string{"owner": lane, "source": s.source, "key": s.key},
		})
	}
	return events
}

// WriteChromeTrace serializes the events as a Chrome trace JSON array. A
// nil or empty Tracer writes an empty array.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(events)
}
