package fabric_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/fabric/fakeworker"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestFabricTraceCoversEveryCellOnce is the trace-attribution acceptance
// test: the 24-cell grid dispatched through a coordinator and two fake
// workers yields a /v1/jobs/{id}/trace whose "cell" spans cover every cell
// exactly once, each owned by the worker that actually settled it (the
// coordinator's store fast path owns singleflight-collapsed duplicates).
// Alongside it, /v1/metrics must expose the fabric series the run produced.
func TestFabricTraceCoversEveryCellOnce(t *testing.T) {
	fl := fakeworker.Start(t, fakeworker.Options{Workers: 2})
	st, err := fl.Client.Submit(grid24())
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(t, fl.Client, st.ID)
	if done.State != service.StateDone || done.Error != "" {
		t.Fatalf("done event %+v", done)
	}
	if done.Remote != 24 {
		t.Fatalf("%d cells went remote, want 24", done.Remote)
	}

	var buf bytes.Buffer
	if err := fl.Client.Trace(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a Chrome trace-event array: %v", err)
	}
	owners := map[string]bool{
		fl.Worker(0).ID(): true,
		fl.Worker(1).ID(): true,
		"coordinator":     true, // store fast path / singleflight followers
	}
	seen := map[string]int{}
	workerOwned := 0
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat != "cell" {
			t.Fatalf("unexpected span category %q: %+v", ev.Cat, ev)
		}
		if !owners[ev.Args["owner"]] {
			t.Fatalf("span owned by %q, not a fleet member: %+v", ev.Args["owner"], ev)
		}
		if ev.Args["owner"] != "coordinator" {
			workerOwned++
		}
		if ev.Args["source"] != "simulated" && ev.Args["source"] != "store-hit" {
			t.Fatalf("remote span sourced from %q: %+v", ev.Args["source"], ev)
		}
		seen[ev.Args["key"]]++
	}
	if len(seen) != 24 {
		t.Fatalf("trace spans %d distinct cells, want 24", len(seen))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s spanned %d times, want exactly once", key, n)
		}
	}
	if workerOwned == 0 {
		t.Fatal("no span attributes a cell to a worker")
	}

	resp, err := http.Get(fl.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"scalefold_fabric_pending_cells 0",
		"scalefold_fabric_workers 2",
		"scalefold_fabric_completed_total 24",
		"scalefold_fabric_reassigned_total 0",
		`scalefold_fabric_worker_inflight{worker="` + fl.Worker(0).ID() + `"} 0`,
		`scalefold_fabric_rpc_seconds_count{rpc="claim"}`,
		`scalefold_fabric_rpc_seconds_bucket{rpc="complete",le="+Inf"} 24`,
		"# TYPE scalefold_fabric_queue_wait_seconds histogram",
		`scalefold_store_hits_total{store="mem"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestFabricRemoteSpansCoverWorkerRuns pins that a remote cell's span covers
// its worker's run of the cell, not its whole claimed batch: one worker runs
// the 24-cell grid in batches of 4, one cell at a time, so no span on its
// lane may start before the previous one ended.
func TestFabricRemoteSpansCoverWorkerRuns(t *testing.T) {
	fl := fakeworker.Start(t, fakeworker.Options{Workers: 1})
	st, err := fl.Client.Submit(grid24())
	if err != nil {
		t.Fatal(err)
	}
	if _, done := collect(t, fl.Client, st.ID); done.State != service.StateDone || done.Remote != 24 {
		t.Fatalf("done event %+v, want done with 24 remote cells", done)
	}
	var buf bytes.Buffer
	if err := fl.Client.Trace(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var spans []obs.TraceEvent
	for _, ev := range events {
		if ev.Ph == "X" && ev.Args["owner"] == fl.Worker(0).ID() {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 24 {
		t.Fatalf("worker lane holds %d spans, want 24", len(spans))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].TS < spans[j].TS })
	overlaps := 0
	for i := 1; i < len(spans); i++ {
		if prev := spans[i-1]; spans[i].TS < prev.TS+prev.Dur-1e-3 { // 1 ns of float slack
			overlaps++
		}
	}
	if overlaps != 0 {
		t.Fatalf("%d of %d spans on the worker lane start before the previous one ends", overlaps, len(spans))
	}
}
