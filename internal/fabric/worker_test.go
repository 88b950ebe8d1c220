package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
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
