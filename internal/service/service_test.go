package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scalefold"
	"repro/internal/scenario"
)

// tinyJob is a 4-cell sweep (DAP {1,2} × ablation {none, zero-launch}) at
// tiny rank counts: real simulator, fast enough to run end to end over HTTP.
func tinyJob() JobSpec {
	return JobSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{32},
		DAPs:      []int{1, 2},
		Ablations: []string{"none", "zero-launch"},
		Seeds:     1,
		Steps:     2,
		Workers:   1,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	return srv, &Client{Base: ts.URL}, stop
}

// collectRows streams a job to completion and returns its row events keyed
// by grid index, plus the terminal event.
func collectRows(t *testing.T, c *Client, id string) (map[int]RowEvent, DoneEvent) {
	t.Helper()
	rows := map[int]RowEvent{}
	done, err := c.Stream(id, func(ev RowEvent) error {
		if _, dup := rows[ev.Index]; dup {
			t.Fatalf("row %d streamed twice", ev.Index)
		}
		rows[ev.Index] = ev
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, done
}

// TestServeSubmitStreamRestartPersistence is the acceptance walk: start the
// server on a loopback port, submit a sweep over HTTP, stream NDJSON cells
// to completion, restart the server against the same store directory,
// resubmit the same spec, and observe every cell served from the persistent
// store — zero re-simulation — with byte-identical rows.
func TestServeSubmitStreamRestartPersistence(t *testing.T) {
	dir := t.TempDir()

	rowBytes := func(rows map[int]RowEvent, n int) []string {
		out := make([]string, n)
		for i := 0; i < n; i++ {
			ev, ok := rows[i]
			if !ok {
				t.Fatalf("row %d never streamed", i)
			}
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}

	// First server lifetime: the job simulates and fills the store.
	_, c1, stop1 := newTestServer(t, Config{StoreDir: dir, Workers: 1})
	st, err := c1.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}
	if st.Cells != 4 {
		t.Fatalf("grid size %d, want 4", st.Cells)
	}
	rows1, done1 := collectRows(t, c1, st.ID)
	if done1.State != StateDone || done1.Rows != 4 || done1.Skipped != 0 {
		t.Fatalf("first done event: %+v", done1)
	}
	if done1.Simulated != 4 || done1.StoreHits != 0 {
		t.Fatalf("first run must simulate every cell: %+v", done1)
	}
	final, err := c1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 4 || final.Simulated != 4 {
		t.Fatalf("first job status: %+v", final)
	}
	ss, err := c1.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Keys != 4 || ss.Dir != dir {
		t.Fatalf("store status after first run: %+v", ss)
	}
	stop1()

	// Second server lifetime, same store directory: a brand-new process-
	// equivalent (fresh job-local memo caches, reloaded disk store). The
	// same spec must be served entirely from the store.
	srv2, c2, stop2 := newTestServer(t, Config{StoreDir: dir, Workers: 1})
	defer stop2()
	if n := srv2.Store().Len(); n != 4 {
		t.Fatalf("restarted store reloaded %d keys, want 4", n)
	}
	st2, err := c2.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	rows2, done2 := collectRows(t, c2, st2.ID)
	if done2.State != StateDone || done2.Rows != 4 {
		t.Fatalf("second done event: %+v", done2)
	}
	if done2.Simulated != 0 {
		t.Fatalf("restarted server re-simulated %d cells, want 0 (all from store)", done2.Simulated)
	}
	if done2.StoreHits != 4 {
		t.Fatalf("restarted server had %d store hits, want 4", done2.StoreHits)
	}

	b1, b2 := rowBytes(rows1, 4), rowBytes(rows2, 4)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("row %d changed across restart:\n%s\nvs\n%s", i, b1[i], b2[i])
		}
	}
}

func TestStreamedRowsMatchSweepTable(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	spec := tinyJob()
	spec.Ranks = []int{30} // not divisible by 4: the DAP-4 cells skip
	spec.DAPs = []int{1, 4}
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, done := collectRows(t, c, st.ID)
	if done.State != StateDone {
		t.Fatalf("done event: %+v", done)
	}
	if done.Skipped != 2 { // DAP-4 cells infeasible at 30 ranks
		t.Fatalf("skipped %d rows, want 2: %+v", done.Skipped, done)
	}
	for i, ev := range rows {
		if ev.Status == "skipped" {
			if ev.Skip == "" || ev.Data["median_step_s"] != "" {
				t.Fatalf("skipped row %d malformed: %+v", i, ev)
			}
			continue
		}
		if ev.Status != "ok" || ev.Data["median_step_s"] == "" || ev.Data["arch"] != "H100" {
			t.Fatalf("row %d malformed: %+v", i, ev)
		}
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	bad := tinyJob()
	bad.Profile = "alphafold3"
	if _, err := c.Submit(bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("bad profile must yield HTTP 400, got %v", err)
	}
	neg := tinyJob()
	neg.Seeds = -1
	if _, err := c.Submit(neg); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("negative seeds must yield HTTP 400, got %v", err)
	}
}

// TestSubmitRefusesTrailingInput: both submission endpoints answer 400 and
// create no job when anything but whitespace follows the spec — a second
// concatenated spec, a stray closing bracket or garbage, each of which the
// decoder would otherwise drop without notice — and accept a whitespace
// tail.
func TestSubmitRefusesTrailingInput(t *testing.T) {
	srv, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	blob, err := json.Marshal(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	sweep, search := string(blob), `{"budget":4}`
	post := func(path, body string) (int, string) {
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", sweep + sweep},
		{"/v1/jobs", sweep + " trailing garbage"},
		{"/v1/jobs", sweep + "}"},
		{"/v1/search", search + search},
		{"/v1/search", search + " trailing garbage"},
		{"/v1/search", search + "]"},
	} {
		if code, msg := post(tc.path, tc.body); code != http.StatusBadRequest || !strings.Contains(msg, "trailing data") {
			t.Errorf("POST %s %q = %d %s, want 400 naming the trailing data", tc.path, tc.body, code, msg)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submissions created %d jobs", len(jobs))
	}
	if code, msg := post("/v1/jobs", sweep+"\n\t "); code != http.StatusAccepted {
		t.Fatalf("a whitespace tail = %d %s, want 202", code, msg)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	if _, err := c.Job("job-999999"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("unknown job must 404, got %v", err)
	}
	if _, err := c.Cancel("job-999999"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("cancel of unknown job must 404, got %v", err)
	}
	if _, err := c.Stream("job-999999", nil); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("stream of unknown job must 404, got %v", err)
	}
}

// TestCancelQueuedJob pins FIFO scheduling and cancellation determinism:
// with one active-job slot, a second submission sits in the queue, can be
// cancelled there, and never simulates anything.
func TestCancelQueuedJob(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	defer stop()
	first, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled queued job settles immediately — its status and stream
	// must not wait for a scheduler worker to dequeue it.
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled queued job reports %q, want %q now", cancelled.State, StateCancelled)
	}
	done, err := c.Stream(queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCancelled || done.Simulated != 0 || done.Rows != 0 {
		t.Fatalf("cancelled-in-queue job must never simulate: %+v", done)
	}
	// The first job is unaffected and completes.
	if d, err := c.Stream(first.ID, nil); err != nil || d.State != StateDone {
		t.Fatalf("first job: %+v, %v", d, err)
	}
	list, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != first.ID || list[1].ID != queued.ID {
		t.Fatalf("job listing wrong: %+v", list)
	}
}

// waitState polls a job's status until it reports state.
func waitState(t *testing.T, c *Client, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelReachesCellWaitingForSlot cancels a running job whose only cell
// waits for the server's single compute slot while another job's cell holds
// it. The cancel must reach the waiting cell: the job settles cancelled at
// once — while the slot holder is still running — instead of holding one of
// the active-job slots until the other simulation frees the compute slot.
func TestCancelReachesCellWaitingForSlot(t *testing.T) {
	srv, c, stop := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 2})
	defer stop()
	long := scalefold.Figure7Config("H100", 512, 8).Scenario // about a second
	long.Steps = 24
	holder, err := c.Submit(JobSpec{Scenarios: []scenario.Scenario{long}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, holder.ID, StateRunning)
	// A job is running before its cell is lowered and takes the server's
	// one compute slot: wait for the slot itself, or the waiter's cell
	// could take it first.
	for deadline := time.Now().Add(5 * time.Second); len(srv.slots) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the holder's cell never took the compute slot")
		}
		time.Sleep(time.Millisecond)
	}
	waiter, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, waiter.ID, StateRunning)
	// Lowering the waiter's four cells takes microseconds; give its first
	// cell time to park on the compute slot, so the cancel must reach a
	// cell that is already waiting rather than one not yet started.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Cancel(waiter.ID); err != nil {
		t.Fatal(err)
	}
	done, err := c.Stream(waiter.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCancelled || done.Simulated != 0 {
		t.Fatalf("waiting job's done event = %+v; want cancelled with nothing simulated", done)
	}
	if st, err := c.Job(holder.ID); err != nil || st.State != StateRunning {
		t.Fatalf("slot holder = %+v, %v; the cancel must settle before it finishes", st, err)
	}
	if d, err := c.Stream(holder.ID, nil); err != nil || d.State != StateDone {
		t.Fatalf("slot holder: %+v, %v", d, err)
	}
}

func TestJobsShareStoreWithinOneServer(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	a, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if d, err := c.Stream(a.ID, nil); err != nil || d.Simulated != 4 {
		t.Fatalf("first job: %+v, %v", d, err)
	}
	// Same spec again, same server: jobs have fresh memo caches, so the
	// sharing layer is the (here in-memory) store.
	b, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Stream(b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 0 || d.StoreHits != 4 {
		t.Fatalf("second job must be served by the shared store: %+v", d)
	}
}

func TestFinishedJobRetentionBounded(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, MaxFinishedJobs: 1})
	defer stop()
	spec := tinyJob()
	spec.DAPs = []int{1}
	spec.Ablations = []string{"none"}
	var last JobStatus
	for i := 0; i < 3; i++ {
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stream(st.ID, nil); err != nil {
			t.Fatal(err)
		}
		last = st
	}
	list, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Eviction happens at submission time, so after the third submit at
	// most MaxFinishedJobs finished jobs from before it survive, plus the
	// third job itself.
	if len(list) > 2 {
		t.Fatalf("retention must prune finished jobs: %d retained", len(list))
	}
	if _, err := c.Job(last.ID); err != nil {
		t.Fatalf("newest job must survive pruning: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	srv, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	ok, err := call[struct {
		OK bool `json:"ok"`
	}](c, http.MethodGet, "/v1/healthz", nil)
	if err != nil || !ok.OK {
		t.Fatalf("healthz: %+v, %v", ok, err)
	}
	// Submitting after Close is refused rather than wedging the queue.
	stop()
	if _, err := srv.Submit(tinyJob()); err == nil {
		t.Fatal("submit after close must fail")
	}
}
