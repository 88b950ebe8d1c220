package fabric_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/fabric/fakeworker"
	"repro/internal/scalefold"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// grid24 is the default 24-cell exploration grid at tiny rank counts and two
// steps — the repo's standard "small but real" sweep shape, fast enough for
// the -race -short CI job.
func grid24() service.JobSpec {
	return service.JobSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{32},
		DAPs:      []int{1, 2, 4, 8},
		Ablations: append([]string(nil), scalefold.Ablations...),
		Seeds:     1,
		Steps:     2,
	}
}

// grid8 shrinks the ablation axis for the chaos tests: 8 cells, enough for
// both workers to hold claimed batches when the chaos hook fires.
func grid8() service.JobSpec {
	js := grid24()
	js.Ablations = []string{"none", "zero-launch"}
	return js
}

// localCSV runs the job spec as a single-process sweep — fresh memo, fresh
// private store, no fabric — and returns the canonical result-table CSV plus
// the number of distinct fingerprints it simulated.
func localCSV(t *testing.T, js service.JobSpec) ([]byte, int) {
	t.Helper()
	s := scalefold.SweepSpec{
		Profile: js.Profile, Arches: js.Arches, Ranks: js.Ranks,
		DAPs: js.DAPs, Ablations: js.Ablations, Seeds: js.Seeds,
		Steps: js.Steps, Workers: 4,
		Cache: sweep.NewCache[cluster.Result](),
	}
	ms := store.NewMem[cluster.Result]()
	s.Store = ms
	rows, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scalefold.SweepTable(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ms.Len()
}

// collect streams job id to completion, returning its rows by grid index.
func collect(t *testing.T, c *service.Client, id string) (map[int]service.RowEvent, service.DoneEvent) {
	t.Helper()
	rows := map[int]service.RowEvent{}
	done, err := c.Stream(id, func(ev service.RowEvent) error {
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

// streamedCSV reassembles the canonical result table from streamed row
// events — the byte-identity bridge between a fabric job and a local sweep.
func streamedCSV(t *testing.T, rows map[int]service.RowEvent, cells int) []byte {
	t.Helper()
	if len(rows) != cells {
		t.Fatalf("streamed %d rows, want %d", len(rows), cells)
	}
	tab := sweep.Table{Header: scalefold.SweepTable(nil).Header}
	for i := 0; i < cells; i++ {
		ev, ok := rows[i]
		if !ok {
			t.Fatalf("row %d missing from stream", i)
		}
		vals := make([]string, len(tab.Header))
		for k, h := range tab.Header {
			vals[k] = ev.Data[h]
		}
		tab.Append(vals...)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFabricByteIdenticalAcrossWorkerCounts is the fabric's determinism
// contract end to end: the 24-cell default sweep dispatched through a
// coordinator and {1, 2, 4} fake workers emits byte-for-byte the CSV a
// single-process `scalefold sweep` emits, every fingerprint lands in the
// shared store exactly once, and the fleet never simulates a cell twice.
func TestFabricByteIdenticalAcrossWorkerCounts(t *testing.T) {
	js := grid24()
	want, unique := localCSV(t, js)
	if unique != 24 {
		t.Fatalf("baseline simulated %d distinct fingerprints, want 24", unique)
	}
	for _, workers := range []int{1, 2, 4} {
		fl := fakeworker.Start(t, fakeworker.Options{Workers: workers})
		sims0 := scalefold.Simulations()
		st, err := fl.Client.Submit(js)
		if err != nil {
			t.Fatal(err)
		}
		rows, done := collect(t, fl.Client, st.ID)
		if done.State != service.StateDone || done.Error != "" {
			t.Fatalf("workers=%d: done event %+v", workers, done)
		}
		if done.Remote != int64(unique) {
			t.Fatalf("workers=%d: %d cells went remote, want %d", workers, done.Remote, unique)
		}
		if got := streamedCSV(t, rows, 24); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: fabric CSV differs from local sweep:\n%s\nvs\n%s", workers, got, want)
		}
		// Zero duplicate work: the fleet simulated each fingerprint exactly
		// once, and both the shared worker store and the coordinator's own
		// store hold each exactly once.
		if delta := scalefold.Simulations() - sims0; delta != int64(unique) {
			t.Fatalf("workers=%d: fleet ran %d simulations, want %d", workers, delta, unique)
		}
		if n := fl.Shared.Len(); n != unique {
			t.Fatalf("workers=%d: shared store holds %d keys, want %d", workers, n, unique)
		}
		if n := fl.Server.Store().Len(); n != unique {
			t.Fatalf("workers=%d: coordinator store holds %d keys, want %d", workers, n, unique)
		}
		fs := fl.Server.Coordinator().Fleet()
		if fs.Lost != 0 || fs.Reassigned != 0 || fs.Rejected != 0 || fs.Completed != int64(unique) {
			t.Fatalf("workers=%d: unexpected fleet counters on a healthy run: %+v", workers, fs)
		}
		fl.Close()
	}
}

// TestFabricSurvivesWorkerKill crashes one of two workers between claim and
// execute: loss detection must reassign its in-flight cells, the job must
// complete with byte-identical results, and no cell may be simulated twice
// (the kill lands before the victim simulates anything).
func TestFabricSurvivesWorkerKill(t *testing.T) {
	want, unique := localCSV(t, grid8())
	killed := make(chan struct{})
	var once sync.Once
	var fl *fakeworker.Fleet
	fl = fakeworker.Start(t, fakeworker.Options{
		Workers: 2,
		Fabric: fabric.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  150 * time.Millisecond,
		},
		Configure: func(i int, w *fabric.Worker) {
			if i == 0 {
				// Crash on the first claimed cell, batch in hand.
				w.BeforeCell = func(string) {
					once.Do(func() {
						fl.Kill(0)
						close(killed)
					})
				}
			} else {
				// Hold the survivor's first cell until the crash happened, so
				// the victim always claims part of the job first.
				w.BeforeCell = func(string) { <-killed }
			}
		},
	})
	sims0 := scalefold.Simulations()
	st, err := fl.Client.Submit(grid8())
	if err != nil {
		t.Fatal(err)
	}
	rows, done := collect(t, fl.Client, st.ID)
	if done.State != service.StateDone || done.Error != "" {
		t.Fatalf("done event after worker loss: %+v", done)
	}
	if got := streamedCSV(t, rows, 8); !bytes.Equal(got, want) {
		t.Fatalf("post-reassignment CSV differs from local sweep:\n%s\nvs\n%s", got, want)
	}
	if delta := scalefold.Simulations() - sims0; delta != int64(unique) {
		t.Fatalf("fleet ran %d simulations after a crash, want %d (no duplicate work)", delta, unique)
	}
	fs := fl.Server.Coordinator().Fleet()
	if fs.Lost != 1 {
		t.Fatalf("lost workers = %d, want 1: %+v", fs.Lost, fs)
	}
	if fs.Reassigned == 0 {
		t.Fatalf("no cells were reassigned after the crash: %+v", fs)
	}
	if n := fl.Shared.Len(); n != unique {
		t.Fatalf("shared store holds %d keys, want %d", n, unique)
	}
}

// TestFabricJobCancelWithIdleFleet cancels a job whose cells are parked in
// remote dispatch with nobody to claim them: the cancel must abort the waits
// and settle the job as cancelled — not failed — with its cells withdrawn
// from the queue.
func TestFabricJobCancelWithIdleFleet(t *testing.T) {
	fl := fakeworker.Start(t, fakeworker.Options{Workers: 1})
	fl.Kill(0) // no live workers: dispatch blocks forever
	st, err := fl.Client.Submit(grid8())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := fl.Client.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", j)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := fl.Client.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	_, done := collect(t, fl.Client, st.ID)
	if done.State != service.StateCancelled || done.Error != "" {
		t.Fatalf("done event = %+v; want a clean cancel (not failed)", done)
	}
	deadline = time.Now().Add(5 * time.Second)
	for fl.Server.Coordinator().Fleet().Pending != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job left cells queued: %+v", fl.Server.Coordinator().Fleet())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFabricStalledWorkerExpiresAndLateCompletesRejected stalls a worker
// (heartbeats paused, cell in hand) past the timeout: the fleet finishes the
// job without it, and every complete the zombie issues afterwards — directly
// against the coordinator and through its own resumed loop — is rejected
// idempotently without disturbing the settled results.
func TestFabricStalledWorkerExpiresAndLateCompletesRejected(t *testing.T) {
	want, unique := localCSV(t, grid8())
	stalled := make(chan struct{})
	release := make(chan struct{})
	fl := fakeworker.Start(t, fakeworker.Options{
		Workers: 2,
		Fabric: fabric.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  150 * time.Millisecond,
		},
		Configure: func(i int, w *fabric.Worker) {
			if i == 0 {
				var once sync.Once
				w.BeforeCell = func(string) {
					once.Do(func() {
						w.SetHeartbeatsPaused(true)
						close(stalled)
						<-release
					})
				}
			} else {
				w.BeforeCell = func(string) { <-stalled }
			}
		},
	})
	sims0 := scalefold.Simulations()
	st, err := fl.Client.Submit(grid8())
	if err != nil {
		t.Fatal(err)
	}
	rows, done := collect(t, fl.Client, st.ID)
	if done.State != service.StateDone || done.Error != "" {
		t.Fatalf("done event with a stalled worker: %+v", done)
	}
	if got := streamedCSV(t, rows, 8); !bytes.Equal(got, want) {
		t.Fatalf("CSV after reassignment differs from local sweep:\n%s\nvs\n%s", got, want)
	}

	// The zombie was expired to finish the job; pin the idempotent-rejection
	// contract directly, deterministically, before letting it move.
	coord := fl.Server.Coordinator()
	deadID := fl.Worker(0).ID()
	keys := fl.Shared.Keys()
	if len(keys) != unique {
		t.Fatalf("shared store holds %d keys, want %d", len(keys), unique)
	}
	res, _ := fl.Shared.Get(keys[0])
	r1 := coord.Complete(deadID, keys[0], res, "")
	r2 := coord.Complete(deadID, keys[0], res, "")
	if r1.Accepted || r2.Accepted || r1 != r2 {
		t.Fatalf("late completes = %+v / %+v; want identical rejections", r1, r2)
	}

	// Release the zombie: its held batch resolves via shared-store hits (zero
	// new simulation) and its natural complete calls are rejected too.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Worker(0).Rejected() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("zombie's own late completes never rejected; fleet %+v", coord.Fleet())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if delta := scalefold.Simulations() - sims0; delta != int64(unique) {
		t.Fatalf("fleet ran %d simulations, want %d (zombie must not re-simulate)", delta, unique)
	}
	fs := coord.Fleet()
	if fs.Lost != 1 {
		t.Fatalf("lost workers = %d, want 1: %+v", fs.Lost, fs)
	}
	if fs.Rejected < 3 { // two direct probes + at least one from the zombie
		t.Fatalf("rejected completes = %d, want >= 3: %+v", fs.Rejected, fs)
	}
}

// TestLongPollFleetQueueWaitAndPromptClose runs a 4-cell job, one cell at a
// time, through two workers whose Poll (2s) dwarfs the cell work: an idle
// worker's claim is parked at the coordinator, so every cell is claimed as
// soon as it is queued instead of at the next poll. Closing the fleet must
// not wait out the parked claims either.
func TestLongPollFleetQueueWaitAndPromptClose(t *testing.T) {
	fl := fakeworker.Start(t, fakeworker.Options{Workers: 2, Poll: 2 * time.Second})
	js := grid24()
	js.DAPs = []int{1, 2}
	js.Ablations = []string{"none", "zero-launch"}
	js.Workers = 1 // serial dispatch: a parked worker is always waiting
	st, err := fl.Client.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := collect(t, fl.Client, st.ID); done.State != service.StateDone || done.Remote != 4 {
		t.Fatalf("done event %+v; want 4 remote cells", done)
	}

	resp, err := http.Get(fl.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`scalefold_fabric_queue_wait_seconds_bucket{le="0.1"} 4`,
		`scalefold_fabric_queue_wait_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("every cell must be claimed within 100ms of queueing: metrics missing %q in:\n%s", want, body)
		}
	}

	t0 := time.Now()
	fl.Close()
	if d := time.Since(t0); d > 500*time.Millisecond {
		t.Fatalf("Fleet.Close took %v with parked claims, want < 500ms", d)
	}
}
