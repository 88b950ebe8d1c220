package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Mount registers the fabric endpoints on mux. The sweep service mounts them
// next to its /v1/jobs API when running in coordinator mode:
//
//	POST /v1/workers/register   admit a worker; returns ID + protocol params
//	POST /v1/workers/claim      claim a cell batch, held up to wait_ms until
//	                            a cell is pending (empty = poll again)
//	POST /v1/workers/heartbeat  record liveness; ok=false → re-register
//	POST /v1/workers/complete   report one cell's outcome
//	GET  /v1/workers            fleet + queue status
//
// A held claim ends early when its client disconnects, and with 503 when
// the coordinator closes. Its rpc latency series includes the hold time.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	// timed wraps a handler with a per-RPC latency histogram. Minting at
	// mount time guarantees the series exist (at zero) before any worker
	// calls in.
	timed := func(rpcName string, h http.HandlerFunc) http.HandlerFunc {
		hist := c.met.reg.Histogram("scalefold_fabric_rpc_seconds",
			"Coordinator RPC handling latency in seconds.", nil,
			obs.Label{Key: "rpc", Value: rpcName})
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h(w, r)
			hist.ObserveSince(t0)
		}
	}
	mux.HandleFunc("POST /v1/workers/register", timed("register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := c.RegisterWorker(req.Name)
		if err != nil {
			writeFabricErr(w, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("POST /v1/workers/claim", timed("claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decodeBody(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitMillis) * time.Millisecond
		cells, err := c.Claim(r.Context(), req.WorkerID, req.Max, wait)
		if err != nil {
			writeFabricErr(w, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, ClaimResponse{Cells: cells})
	}))
	mux.HandleFunc("POST /v1/workers/heartbeat", timed("heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		switch err := c.Heartbeat(req.WorkerID); {
		case err == nil:
			writeFabricJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
		case errors.Is(err, ErrUnknownWorker):
			// 200 with ok=false: the protocol-level "re-register" signal,
			// distinct from transport failures the worker should retry.
			writeFabricJSON(w, http.StatusOK, HeartbeatResponse{OK: false})
		default:
			writeFabricErr(w, err)
		}
	}))
	mux.HandleFunc("POST /v1/workers/complete", timed("complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeFabricJSON(w, http.StatusOK, c.CompleteCell(req))
	}))
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, c.Fleet())
	})
}

// decodeBody strict-decodes one request into v: an unknown field, or
// anything but whitespace after the request, is a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the request")
		}
	}
	if err != nil {
		writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request: " + err.Error()})
		return false
	}
	return true
}

func writeFabricErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownWorker):
		code = http.StatusGone // worker must re-register
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeFabricJSON(w, code, map[string]string{"error": err.Error()})
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// rpc is the worker-side call helper: POST JSON, decode JSON, lift the error
// envelope. A 410 maps back to ErrUnknownWorker so the worker loop can
// re-register instead of treating it as a transport failure, and a 503
// wraps ErrClosed. Cancelling ctx abandons the call.
func rpc[T any](ctx context.Context, hc *http.Client, base, path string, req any, out *T) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("fabric: reading response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusGone:
		return ErrUnknownWorker
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w (HTTP 503)", ErrClosed)
	}
	if resp.StatusCode/100 != 2 {
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			return fmt.Errorf("fabric: %s (HTTP %d)", envelope.Error, resp.StatusCode)
		}
		return fmt.Errorf("fabric: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("fabric: decoding response: %w", err)
	}
	return nil
}
