package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// promLine matches one Prometheus text-exposition sample line: a metric name,
// an optional label set, and a value. Comment lines are checked separately.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

// TestMetricsEndpoint runs one job to completion and scrapes /v1/metrics: the
// response must carry the Prometheus 0.0.4 content type, parse line-by-line
// as valid exposition text, and contain the service- and store-level series
// the observability layer promises.
func TestMetricsEndpoint(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	st, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Stream(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("job ended %s: %+v", done.State, done)
	}
	resp, err := c.http().Get(c.url("/v1/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE scalefold_service_jobs_submitted_total counter",
		"scalefold_service_jobs_submitted_total 1",
		"# TYPE scalefold_service_jobs_queued gauge",
		"scalefold_service_jobs_queued 0",
		"scalefold_service_jobs_running 0",
		`scalefold_service_jobs_finished_total{state="done"} 1`,
		// The server's in-memory store was attached at construction: one
		// miss-then-append per distinct cell.
		`scalefold_store_misses_total{store="mem"} 4`,
		`scalefold_store_records{store="mem"} 4`,
		"# TYPE scalefold_store_lookup_seconds histogram",
		`scalefold_store_lookup_seconds_count{store="mem"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestTraceEndpoint proves the trace export contract: the download is valid
// Chrome trace-event JSON that unmarshals into obs.TraceEvent, and the job's
// spans cover every cell exactly once with local-engine attribution (no
// fabric configured here).
func TestTraceEndpoint(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	st, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Stream(st.ID, nil); err != nil || done.State != StateDone {
		t.Fatalf("stream: %+v, %v", done, err)
	}
	resp, err := c.http().Get(c.url("/v1/jobs/" + st.ID + "/trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, st.ID) {
		t.Fatalf("content disposition %q does not name the job", cd)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat != "cell" {
			t.Fatalf("unexpected span category %q: %+v", ev.Cat, ev)
		}
		if !strings.HasPrefix(ev.Args["owner"], "local-") {
			t.Fatalf("local job span owned by %q, want local-N: %+v", ev.Args["owner"], ev)
		}
		if ev.Args["source"] != "simulated" {
			t.Fatalf("fresh cache/store cell sourced from %q: %+v", ev.Args["source"], ev)
		}
		seen[ev.Args["key"]]++
	}
	if len(seen) != 4 {
		t.Fatalf("trace spans %d distinct cells, want 4: %v", len(seen), seen)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s spanned %d times, want exactly once", key, n)
		}
	}
	// Unknown jobs get the JSON error envelope, not an empty trace.
	if resp, err := c.http().Get(c.url("/v1/jobs/nope/trace")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("trace of unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestTraceEndpointSearchJob extends the trace contract to search jobs: a
// finished search's trace holds exactly one cat="cell" span per settled
// probe, on local lanes (or the memo lane for a probe its memo settled),
// attributed and keyed like sweep cells.
func TestTraceEndpointSearchJob(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	st, err := c.SubmitSearch(tinySearch())
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]int{} // probe display name → settled count
	frontier, done, err := c.SearchStream(st.ID, func(ev ProbeEvent) error {
		probes[fmt.Sprintf("search ranks=%d dap=%d fail=%g", ev.Ranks, ev.DAP, ev.FailProb)]++
		return nil
	})
	if err != nil || done.State != StateDone || frontier == nil {
		t.Fatalf("search: %+v, %v", done, err)
	}
	var buf bytes.Buffer
	if err := c.Trace(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	n := 0
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		n++
		owner, src := ev.Args["owner"], ev.Args["source"]
		switch {
		case ev.Cat != "cell":
			t.Fatalf("unexpected span category %q: %+v", ev.Cat, ev)
		case owner == "memo" && src != "memo":
			t.Fatalf("memo-lane span sourced from %q: %+v", src, ev)
		case owner != "memo" && !strings.HasPrefix(owner, "local-"):
			t.Fatalf("local search span owned by %q, want local-N or memo: %+v", owner, ev)
		case ev.Args["key"] == "":
			t.Fatalf("span carries no key: %+v", ev)
		}
		spans[ev.Name]++
	}
	if n != done.Rows || n == 0 {
		t.Fatalf("trace holds %d spans for %d settled probes", n, done.Rows)
	}
	for name, k := range probes {
		if spans[name] != k {
			t.Fatalf("probe %q settled %d times but spanned %d times", name, k, spans[name])
		}
	}
}

// TestHealthzEnriched checks the dashboard fields the enriched health
// endpoint added around the original liveness bit.
func TestHealthzEnriched(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	st, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Stream(st.ID, nil); err != nil || done.State != StateDone {
		t.Fatalf("stream: %+v, %v", done, err)
	}
	hs, err := call[HealthStatus](c, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hs.OK || hs.GoVersion == "" || hs.UptimeSec < 0 {
		t.Fatalf("healthz: %+v", hs)
	}
	if hs.JobsFinished != 1 || hs.JobsQueued != 0 || hs.JobsRunning != 0 {
		t.Fatalf("healthz job counts: %+v", hs)
	}
	if hs.StoreKeys != 4 {
		t.Fatalf("healthz store keys %d, want 4", hs.StoreKeys)
	}
}
