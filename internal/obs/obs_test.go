package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative adds ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in the (0.01, 0.1] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if math.Abs(h.Sum()-5.0) > 1e-9 {
		t.Fatalf("sum = %g, want 5.0", h.Sum())
	}
	if got := h.counts[1].Load(); got != 100 {
		t.Fatalf("(0.01, 0.1] bucket = %d, want 100", got)
	}
	// Observations past the last bound land in the overflow bucket.
	h.Observe(100)
	if got := h.counts[3].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter instance")
	}
	w1 := r.Gauge("inflight", "", Label{"worker", "w-1"})
	w2 := r.Gauge("inflight", "", Label{"worker", "w-2"})
	if w1 == w2 {
		t.Fatal("distinct labels must mint distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name as a different type must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("scalefold_jobs_total", "Jobs by terminal state.", Label{"state", "done"}).Add(3)
	r.Counter("scalefold_jobs_total", "Jobs by terminal state.", Label{"state", "failed"}).Add(1)
	r.Gauge("scalefold_queue_depth", "Queued jobs.").Set(2)
	h := r.Histogram("scalefold_claim_seconds", "Claim RPC latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# HELP scalefold_claim_seconds Claim RPC latency.",
		"# TYPE scalefold_claim_seconds histogram",
		`scalefold_claim_seconds_bucket{le="0.01"} 1`,
		`scalefold_claim_seconds_bucket{le="0.1"} 2`,
		`scalefold_claim_seconds_bucket{le="+Inf"} 3`,
		"scalefold_claim_seconds_sum 5.055",
		"scalefold_claim_seconds_count 3",
		"# HELP scalefold_jobs_total Jobs by terminal state.",
		"# TYPE scalefold_jobs_total counter",
		`scalefold_jobs_total{state="done"} 3`,
		`scalefold_jobs_total{state="failed"} 1`,
		"# HELP scalefold_queue_depth Queued jobs.",
		"# TYPE scalefold_queue_depth gauge",
		"scalefold_queue_depth 2",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", Label{"path", `a"b\c` + "\n"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `c_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped: %s", buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("hits_total", "").Inc()
				r.Gauge("depth", "").Add(1)
				r.Histogram("lat_seconds", "", nil).Observe(0.01)
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 1600 {
		t.Fatalf("hits = %d, want 1600", got)
	}
}

func TestTracerSpansAndLanes(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	tr.Span("w-1", "cell-a", "cell", t0, t0.Add(5*time.Millisecond),
		map[string]string{"owner": "w-1", "source": "simulated"})
	tr.Span("w-2", "cell-b", "cell", t0, t0.Add(3*time.Millisecond), nil)
	tr.Span("w-1", "cell-c", "cell", t0.Add(5*time.Millisecond), t0.Add(6*time.Millisecond), nil)

	events := tr.Events()
	var meta, spans []TraceEvent
	for _, e := range events {
		switch e.Ph {
		case "M":
			meta = append(meta, e)
		case "X":
			spans = append(spans, e)
		}
	}
	if len(meta) != 2 {
		t.Fatalf("lanes = %d metadata events, want 2 (one per distinct lane)", len(meta))
	}
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].TID != spans[2].TID {
		t.Fatal("same lane must map to the same tid")
	}
	if spans[0].TID == spans[1].TID {
		t.Fatal("distinct lanes must map to distinct tids")
	}
	if spans[0].Args["source"] != "simulated" {
		t.Fatalf("args lost: %+v", spans[0].Args)
	}
	// The wire format round-trips.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var back []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("round-trip lost events: %d != %d", len(back), len(events))
	}
}

func TestTracerClamping(t *testing.T) {
	tr := NewTracer()
	past := time.Now().Add(-time.Hour)
	tr.Span("lane", "early", "cell", past, past.Add(time.Minute), nil)
	for _, e := range tr.Events() {
		if e.Ph == "X" && e.TS < 0 {
			t.Fatalf("span before trace origin must clamp to 0, got ts=%g", e.TS)
		}
	}
}

// TestObsNilFastPathAllocFree pins the uninstrumented fast path: every
// recording call on nil receivers must be a zero-allocation no-op, so code
// instrumented against an absent Registry/Tracer costs only nil checks.
// Same style as cluster's TestSimulateStepLoopAllocFree — a regression here
// means instrumentation overhead leaked into every sweep that never asked
// for metrics.
func TestObsNilFastPathAllocFree(t *testing.T) {
	var (
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
		t0 = time.Now()
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(0.5)
		h.ObserveSince(t0)
		tr.Span("lane", "name", "cat", t0, t0, nil)
		_ = r.Counter("x", "")
		_ = r.Gauge("x", "")
		_ = r.Histogram("x", "", nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-receiver obs calls allocated %.1f times per run, want 0", allocs)
	}
}
