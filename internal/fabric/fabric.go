// Package fabric turns the sweep service into a distributed service: a
// coordinator that deduplicates a job's cells by their canonical v3/v4
// scenario fingerprint and dispatches them to a fleet of registered workers
// over the existing HTTP wire format, plus the worker loop that claims cell
// batches, runs them through the sweep engine, and writes results to a
// content-addressed shared result store — so any worker's finished cell is
// every worker's (and the coordinator's) memo hit.
//
// The dataflow is pull-based: workers register (POST /v1/workers/register),
// then loop claiming batches (POST /v1/workers/claim), executing them, and
// reporting results (POST /v1/workers/complete), heartbeating in between
// (POST /v1/workers/heartbeat). A claim is a long poll: an idle worker's
// claim is held at the coordinator (up to its wait_ms) and answered the
// moment a cell is queued, so a new cell waits on the coordinator's wake-up,
// not on the worker's next poll. A claim takes cells from the head of the
// queue, oldest first, whichever worker asks: any idle worker takes the next
// pending cell.
//
// Failure semantics are the perturbation layer's restart model applied to
// ourselves: a worker that misses heartbeats past the timeout is declared
// lost, its in-flight cells are requeued (bounded by MaxRetries per cell),
// and any late complete call it issues afterwards is rejected idempotently —
// the reassigned run's result stands, and because results are deterministic
// functions of the fingerprint, either copy is byte-identical anyway.
package fabric

import (
	"log/slog"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Config sizes the coordinator's fleet protocol.
type Config struct {
	// HeartbeatInterval is advertised to workers at registration; they beat
	// at this period. <= 0 means 2s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a worker lost when its last heartbeat (or
	// claim, or complete — any authenticated call counts) is older than
	// this. <= 0 means 3 × HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// MaxRetries bounds how many times one cell may be reassigned after
	// worker loss (or a worker-reported execution error) before the cell —
	// and with it the job waiting on it — fails. <= 0 means 3.
	MaxRetries int
	// BatchSize is the maximum cells handed out per claim. <= 0 means 4.
	BatchSize int
	// Now overrides the clock (tests). Setting it also disables the
	// background expiry loop: loss detection then runs only inside
	// coordinator calls and explicit ExpireNow, so tests control time
	// completely.
	Now func() time.Time
	// Registry, when non-nil, receives the coordinator's observability
	// series (queue depth, per-worker in-flight, RPC latencies, loss
	// counters). Nil leaves the fabric uninstrumented.
	Registry *obs.Registry
	// Log, when non-nil, receives structured coordinator diagnostics
	// (worker loss, retry exhaustion). Nil discards them.
	Log *slog.Logger
}

// logger returns the configured structured logger, or a discarding one.
func (c Config) logger() *slog.Logger {
	if c.Log != nil {
		return c.Log
	}
	return slog.New(slog.DiscardHandler)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	return c
}

// Cell is one dispatchable unit of work on the wire: the canonical scenario
// descriptor plus its fingerprint, which doubles as the task identity — the
// coordinator deduplicates by it, and the shared store is keyed by it.
type Cell struct {
	// Key is the cell's canonical scenario fingerprint (v3:/v4: prefixed).
	Key string `json:"key"`
	// Name is the display label the submitting job gave the cell.
	Name string `json:"name,omitempty"`
	// Scenario is the full canonical descriptor; the worker re-derives the
	// fingerprint from it and refuses a mismatch, so a corrupted dispatch
	// can never store a result under the wrong key.
	Scenario scenario.Scenario `json:"scenario"`
}

// RegisterRequest is the wire form of POST /v1/workers/register.
type RegisterRequest struct {
	// Name is a human-readable worker label (hostname-pid style); it need
	// not be unique — the coordinator mints the unique WorkerID.
	Name string `json:"name,omitempty"`
}

// RegisterResponse hands the worker its identity and the fleet protocol
// parameters, so workers need no configuration beyond the coordinator URL.
type RegisterResponse struct {
	WorkerID               string `json:"worker_id"`
	HeartbeatMillis        int64  `json:"heartbeat_ms"`
	BatchSize              int    `json:"batch_size"`
	HeartbeatTimeoutMillis int64  `json:"heartbeat_timeout_ms"`
}

// ClaimRequest is the wire form of POST /v1/workers/claim.
type ClaimRequest struct {
	WorkerID string `json:"worker_id"`
	// Max bounds the batch; the coordinator additionally caps it at its
	// configured BatchSize. <= 0 means BatchSize.
	Max int `json:"max,omitempty"`
	// WaitMillis makes the claim a long poll: with nothing pending, the
	// coordinator holds the request up to this long and answers as soon as
	// a cell is queued (or requeued). <= 0 — and older workers, which omit
	// it — get an immediate answer.
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

// ClaimResponse carries the claimed batch. Empty Cells means nothing was
// pending for the whole of the request's wait: poll again.
type ClaimResponse struct {
	Cells []Cell `json:"cells"`
}

// HeartbeatRequest is the wire form of POST /v1/workers/heartbeat.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges liveness; OK false tells the worker the
// coordinator no longer knows it (expired or restarted) and it must
// re-register before claiming again.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest is the wire form of POST /v1/workers/complete: one cell's
// outcome. Err non-empty reports a worker-side execution failure (the cell
// is requeued against the retry budget); otherwise Result carries the
// simulated (or shared-store-served) result.
type CompleteRequest struct {
	WorkerID string         `json:"worker_id"`
	Key      string         `json:"key"`
	Result   cluster.Result `json:"result"`
	Err      string         `json:"err,omitempty"`
	// ElapsedMillis is the worker-measured execution time of the cell, so
	// the coordinator's job trace shows true fleet timings rather than
	// RPC-bracketed estimates. Zero from pre-observability workers.
	ElapsedMillis float64 `json:"elapsed_ms,omitempty"`
	// Source reports how the worker satisfied the cell: "store-hit" (shared
	// store already held it) or "simulated". Empty from older workers counts
	// as simulated.
	Source string `json:"source,omitempty"`
}

// CompleteResponse reports whether the outcome was accepted. A rejected
// complete (unknown/expired worker, or a cell already settled by its
// reassigned run) is idempotent: repeating it yields the same rejection and
// mutates nothing.
type CompleteResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// WorkerStatus is one worker's row in the fleet listing (GET /v1/workers).
type WorkerStatus struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	LastBeat  time.Time `json:"last_beat"`
	Inflight  int       `json:"inflight"`
	Completed int64     `json:"completed"`
	// Simulated and StoreHits split Completed by how the worker satisfied
	// each cell (worker-reported Source on complete).
	Simulated int64 `json:"simulated"`
	StoreHits int64 `json:"store_hits"`
}

// FleetStatus is the wire form of GET /v1/workers: the live fleet plus the
// coordinator's queue depths and lifetime counters.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	// Pending counts cells waiting for a claim; Inflight cells currently
	// assigned to a worker.
	Pending  int `json:"pending"`
	Inflight int `json:"inflight"`
	// Completed counts cells settled by the fleet since coordinator start;
	// Reassigned counts loss-triggered requeues; Rejected counts refused
	// late/stale complete calls.
	Completed  int64 `json:"completed"`
	Reassigned int64 `json:"reassigned"`
	Rejected   int64 `json:"rejected"`
	Lost       int64 `json:"lost_workers"`
	// Simulated and StoreHits aggregate the per-worker split fleet-wide.
	Simulated int64 `json:"simulated"`
	StoreHits int64 `json:"store_hits"`
}
