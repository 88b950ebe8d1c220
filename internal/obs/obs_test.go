package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
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

// TestWritePrometheusRacesMint pins that a scrape may overlap the first use
// of a series: one goroutine mints 2,000 labeled counters of one family
// while another scrapes 200 times. A scrape that read a family's series map
// outside the registry lock is reported here under -race, and can be Go's
// fatal concurrent map read and map write without it.
func TestWritePrometheusRacesMint(t *testing.T) {
	const mints, scrapes = 2000, 200
	r := NewRegistry()
	r.Counter("minted_total", "Series minted while scrapes run.", Label{"n", "0"})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < mints; i++ {
			r.Counter("minted_total", "Series minted while scrapes run.", Label{"n", strconv.Itoa(i)}).Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\nminted_total{"); got != mints {
		t.Fatalf("final scrape shows %d minted series, want %d", got, mints)
	}
}

func TestTracerSpansAndLanes(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	tr.Span("w-1", "cell-a", "cell", "simulated", "k-a", t0, t0.Add(5*time.Millisecond))
	tr.Span("w-2", "cell-b", "cell", "analytic", "k-b", t0, t0.Add(3*time.Millisecond))
	tr.Span("w-1", "cell-c", "cell", "store-hit", "k-c", t0.Add(5*time.Millisecond), t0.Add(6*time.Millisecond))

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
	if a := spans[0].Args; a["owner"] != "w-1" || a["source"] != "simulated" || a["key"] != "k-a" {
		t.Fatalf("args lost: %+v", a)
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
	tr.Span("lane", "early", "cell", "analytic", "k", past, past.Add(time.Minute))
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
		tr.Span("lane", "name", "cat", "source", "key", t0, t0)
		_ = r.Counter("x", "")
		_ = r.Gauge("x", "")
		_ = r.Histogram("x", "", nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-receiver obs calls allocated %.1f times per run, want 0", allocs)
	}
}

// TestTracerTraceBytes pins the trace JSON of typed spans to what the
// tracer wrote when each span stored a TraceEvent with an args map: the
// hand-built events below are exactly those, a lane's thread_name metadata
// event just before its first span. The spans take the three cell shapes
// (a local lane, the memo lane, a remote worker), and include one starting
// before the tracer's origin and one ending before it starts.
func TestTracerTraceBytes(t *testing.T) {
	tr := NewTracer()
	t0 := tr.t0
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	us := func(ns int64) float64 { return float64(time.Duration(ns)) / float64(time.Microsecond) }
	meta := func(tid int, lane string) TraceEvent {
		return TraceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]string{"name": lane}}
	}
	cell := func(tid int, lane, name, source, key string, ts, dur float64) TraceEvent {
		return TraceEvent{Name: name, Cat: "cell", Ph: "X", TS: ts, Dur: dur, PID: 1, TID: tid,
			Args: map[string]string{"owner": lane, "source": source, "key": key}}
	}

	tr.Span("local-0", "H100x64/DAP-8", "cell", "analytic", "v5:a", at(1_234_567), at(3_210_987))
	tr.Span("memo", "H100x64/DAP-8", "cell", "memo", "v5:a", at(3_300_001), at(3_300_001))
	tr.Span("w-1", "A100x32/DAP-4", "cell", "simulated", "v5:b", at(2_000_003), at(90_000_007))
	tr.Span("local-0", "early", "cell", "store-hit", "v5:c", t0.Add(-time.Hour), at(5_000_333))
	tr.Span("coordinator", "backwards", "cell", "store-hit", "v5:d", at(7_777_777), at(7_000_000))
	tr.Span("local-1", "H100x128/DAP-1", "cell", "simulated", "v5:e", at(8_000_000), at(8_123_456_789))
	tr.Span("w-1", "A100x32/DAP-2", "cell", "remote", "v5:f", at(91_000_000), at(91_000_999))
	want := []TraceEvent{
		meta(0, "local-0"),
		cell(0, "local-0", "H100x64/DAP-8", "analytic", "v5:a", us(1_234_567), us(3_210_987-1_234_567)),
		meta(1, "memo"),
		cell(1, "memo", "H100x64/DAP-8", "memo", "v5:a", us(3_300_001), 0),
		meta(2, "w-1"),
		cell(2, "w-1", "A100x32/DAP-4", "simulated", "v5:b", us(2_000_003), us(90_000_007-2_000_003)),
		cell(0, "local-0", "early", "store-hit", "v5:c", 0, us(5_000_333)),
		meta(3, "coordinator"),
		cell(3, "coordinator", "backwards", "store-hit", "v5:d", us(7_777_777), 0),
		meta(4, "local-1"),
		cell(4, "local-1", "H100x128/DAP-1", "simulated", "v5:e", us(8_000_000), us(8_123_456_789-8_000_000)),
		cell(2, "w-1", "A100x32/DAP-2", "remote", "v5:f", us(91_000_000), us(999)),
	}
	var got, wantBytes bytes.Buffer
	if err := tr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantBytes.String() {
		t.Fatalf("trace bytes drifted:\n got %s\nwant %s", got.String(), wantBytes.String())
	}

	// An empty tracer and a nil one both write an empty array.
	for _, tr := range []*Tracer{NewTracer(), nil} {
		var b bytes.Buffer
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != "[]\n" {
			t.Fatalf("empty trace wrote %q, want %q", b.String(), "[]\n")
		}
	}
}
