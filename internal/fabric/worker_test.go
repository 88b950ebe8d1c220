package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scalefold"
)

// closedThen serves POST /v1/workers/register from a coordinator that is
// closed (503) for the first closedCalls calls and admits the worker after.
func closedThen(t *testing.T, closedCalls int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= closedCalls {
			writeFabricErr(w, ErrClosed)
			return
		}
		writeFabricJSON(w, http.StatusOK, RegisterResponse{WorkerID: "w-000042", HeartbeatMillis: 1000, BatchSize: 4})
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestRPCMaps503ToErrClosed(t *testing.T) {
	ts, _ := closedThen(t, 1)
	var resp RegisterResponse
	err := rpc(context.Background(), http.DefaultClient, ts.URL, "/v1/workers/register", RegisterRequest{}, &resp)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("rpc against a closed coordinator = %v, want ErrClosed", err)
	}
}

func TestRegisterRetriesClosedCoordinator(t *testing.T) {
	ts, calls := closedThen(t, 1)
	w := &Worker{Base: ts.URL, Name: "patient", Poll: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := w.register(ctx)
	if err != nil || resp.WorkerID != "w-000042" || w.ID() != "w-000042" {
		t.Fatalf("register = %+v, %v (ID %q); want w-000042 after the restart", resp, err, w.ID())
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("register made %d calls, want 503 then 200", n)
	}
}

func TestRegisterFailsOnlyOnCancel(t *testing.T) {
	ts, calls := closedThen(t, 1<<62)
	w := &Worker{Base: ts.URL, Poll: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	resp, err := w.register(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || resp.WorkerID != "" {
		t.Fatalf("register against a coordinator that stays closed = %+v, %v; want the context error", resp, err)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("register made %d calls, want retries until cancelled", n)
	}
}

// TestWorkerReportsUnlowerableCellAndKeepsClaiming hands a worker a cell it
// cannot lower — a platform its build lacks, as a newer coordinator may
// send. The fingerprint check passes (a fingerprint never fails), so the
// worker must report the lowering error as the cell's err, which requeues
// it against the retry budget, and keep claiming instead of crashing.
func TestWorkerReportsUnlowerableCellAndKeepsClaiming(t *testing.T) {
	sc := scalefold.Figure7Config("H100", 32, 1).Scenario
	sc.Platform = "h900-future"
	cell := Cell{Key: sc.Fingerprint(), Name: "future", Scenario: sc}
	var claims atomic.Int64
	completes := make(chan CompleteRequest, 4)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, RegisterResponse{WorkerID: "w-000001", HeartbeatMillis: 1000, BatchSize: 1})
	})
	mux.HandleFunc("POST /v1/workers/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
	})
	mux.HandleFunc("POST /v1/workers/claim", func(w http.ResponseWriter, r *http.Request) {
		var resp ClaimResponse
		if claims.Add(1) == 1 {
			resp.Cells = []Cell{cell}
		}
		writeFabricJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/workers/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		completes <- req
		writeFabricJSON(w, http.StatusOK, CompleteResponse{Accepted: true, Reason: "requeued after worker-reported error"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	w := &Worker{Base: ts.URL, Name: "older-build", Poll: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-stopped; err != nil {
			t.Errorf("Run = %v, want nil on cancel", err)
		}
	}()
	select {
	case req := <-completes:
		if req.Key != cell.Key || req.Err == "" {
			t.Fatalf("complete = %+v; want the cell reported with a non-empty err", req)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never completed the cell it cannot lower")
	}
	deadline := time.Now().Add(5 * time.Second)
	for claims.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("worker stopped claiming after the failed cell (%d claims)", claims.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := w.Completed(); n != 0 {
		t.Fatalf("Completed = %d; a failed cell must not count as completed", n)
	}
}
