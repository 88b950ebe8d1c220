package fabric

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// Worker is the fleet side of the fabric: it registers with a coordinator,
// claims cell batches, resolves them through a scalefold.Resolver built from
// its Store, OnStoreErr and Metrics (shared-store hit, else simulate and
// write through), and reports each outcome. `scalefold worker` runs one;
// the fakeworker harness runs fleets of them in-process. Run is the only
// entry point; the exported fields configure it and must not change after
// Run starts.
type Worker struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:8823".
	Base string
	// Name labels the worker in fleet listings (hostname-pid style).
	Name string
	// Store, when non-nil, is the shared content-addressed result store: a
	// cell another worker already finished resolves as a hit with zero
	// simulation, and finished cells are written through for the rest of
	// the fleet. Point co-located workers at one shared directory via
	// store.OpenShared, or share a single Store value in-process.
	Store store.Store[cluster.Result]
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Poll is the idle claim interval, and the retry backoff for transport
	// failures. Each claim asks the coordinator to hold it up to Poll
	// (wait_ms) while nothing is pending, so an idle worker sends one claim
	// per Poll yet picks a new cell up the moment it is queued; after an
	// empty claim the worker sleeps only the part of Poll the coordinator
	// did not already wait. <= 0 means 200ms.
	Poll time.Duration
	// OnStoreErr, when non-nil, receives shared-store write failures (the
	// worker still completes the cell from memory).
	OnStoreErr func(error)
	// Metrics, when non-nil, counts how claimed cells were satisfied
	// (Simulated vs StoreHits), exactly like a local sweep's metrics.
	Metrics *scalefold.SweepMetrics
	// BeforeCell, when non-nil, runs before each claimed cell executes —
	// the chaos hook the fakeworker harness uses to kill or stall a worker
	// between claim and complete. Production workers leave it nil.
	BeforeCell func(key string)
	// Log, when non-nil, receives structured diagnostics: claim/complete
	// failures with worker id and attempt count, re-registrations, rejected
	// results. Nil discards them (the loop's behavior is unchanged either
	// way — errors back off by Poll and retry).
	Log *slog.Logger

	mu sync.Mutex
	id string

	hbPaused  atomic.Bool
	completed atomic.Int64
	rejected  atomic.Int64
}

// ID returns the worker's current coordinator-assigned identity ("" before
// the first successful registration; it changes if the worker re-registers
// after being expired).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Completed returns how many cells this worker has successfully reported.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Rejected returns how many of this worker's complete calls the coordinator
// refused — late results for cells reassigned after the worker was declared
// lost.
func (w *Worker) Rejected() int64 { return w.rejected.Load() }

// SetHeartbeatsPaused stops (true) or resumes (false) the heartbeat loop's
// sends without stopping the worker — the fakeworker harness's "stalled
// worker" control. A worker paused past the coordinator's timeout is
// declared lost and must re-register (the claim loop does so automatically).
func (w *Worker) SetHeartbeatsPaused(paused bool) { w.hbPaused.Store(paused) }

func (w *Worker) http() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 200 * time.Millisecond
}

func (w *Worker) logger() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.New(slog.DiscardHandler)
}

// sleep waits d or until ctx is done, reporting whether the worker should
// keep running.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// register obtains a (new) worker identity. Every failure — transport down,
// or a closed coordinator (503) that may yet restart — backs off by Poll and
// retries, so it returns an error only once ctx is cancelled.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	for attempt := 1; ; attempt++ {
		var resp RegisterResponse
		err := rpc(ctx, w.http(), w.Base, "/v1/workers/register", RegisterRequest{Name: w.Name}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return resp, nil
		}
		if ctx.Err() == nil {
			w.logger().Warn("fabric register failed, backing off",
				"name", w.Name, "attempt", attempt, "backoff", w.poll(), "err", err)
		}
		if !sleep(ctx, w.poll()) {
			return RegisterResponse{}, ctx.Err()
		}
	}
}

// Run is the worker loop: register, heartbeat, claim, execute, complete —
// until ctx is cancelled. A coordinator that forgets the worker (missed
// heartbeats, restart) triggers transparent re-registration; transport
// failures back off by Poll and retry. Run returns nil on cancellation.
func (w *Worker) Run(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, time.Duration(reg.HeartbeatMillis)*time.Millisecond)
	r := &scalefold.Resolver{Store: w.Store, OnStoreErr: w.OnStoreErr, Metrics: w.Metrics}

	claimFails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		var resp ClaimResponse
		req := ClaimRequest{WorkerID: w.ID(), Max: reg.BatchSize, WaitMillis: w.poll().Milliseconds()}
		t0 := time.Now()
		err := rpc(ctx, w.http(), w.Base, "/v1/workers/claim", req, &resp)
		switch {
		case ctx.Err() != nil:
			return nil
		case errors.Is(err, ErrUnknownWorker):
			w.logger().Info("fabric worker re-registering: coordinator forgot us",
				"worker", w.ID(), "name", w.Name)
			if reg, err = w.register(ctx); err != nil {
				return nil
			}
			continue
		case err != nil:
			claimFails++
			w.logger().Warn("fabric claim failed, backing off",
				"worker", w.ID(), "attempt", claimFails, "backoff", w.poll(), "err", err)
			if !sleep(ctx, w.poll()) {
				return nil
			}
			continue
		}
		claimFails = 0
		if len(resp.Cells) == 0 {
			// The coordinator held the claim for most of Poll already; sleep
			// the rest, so an older coordinator that answers at once still
			// sees one claim per Poll.
			if !sleep(ctx, w.poll()-time.Since(t0)) {
				return nil
			}
			continue
		}
		for _, cell := range resp.Cells {
			if w.BeforeCell != nil {
				w.BeforeCell(cell.Key)
			}
			if ctx.Err() != nil {
				// Killed mid-batch: abandon without simulating — the
				// coordinator's loss detection requeues the cells.
				return nil
			}
			w.executeCell(r, cell)
		}
	}
}

// executeCell resolves one claimed cell through r and reports its outcome,
// including the measured execution time and how the cell was satisfied
// (shared-store hit vs simulation) so the coordinator's job trace carries
// true fleet timings. It fingerprints the cell once, to check the scenario
// against the claimed key, and resolves it under that key. A cell that fails
// the check or fails to resolve — one naming a platform this build lacks,
// say, claimed from a newer coordinator — is reported as an error, which
// requeues it against the coordinator's retry budget.
func (w *Worker) executeCell(r *scalefold.Resolver, cell Cell) {
	cfg := scalefold.StepConfig{Name: cell.Name, Scenario: cell.Scenario}
	req := CompleteRequest{WorkerID: w.ID(), Key: cell.Key}
	if got := cfg.Fingerprint(); got != cell.Key {
		// A result stored under the wrong key would poison the shared
		// store; refuse and let the coordinator retry elsewhere.
		req.Err = "fingerprint mismatch: claimed " + cell.Key + ", scenario encodes " + got
	} else {
		t0 := time.Now()
		res, src, err := r.Resolve(context.Background(), cfg, cell.Key)
		if err != nil {
			req.Err = err.Error()
		} else {
			req.Result, req.Source = res, string(src)
			req.ElapsedMillis = float64(time.Since(t0)) / float64(time.Millisecond)
		}
	}
	// Not bound to the worker's context: a finished cell is still reported
	// during shutdown.
	var resp CompleteResponse
	if err := rpc(context.Background(), w.http(), w.Base, "/v1/workers/complete", req, &resp); err != nil {
		// Coordinator gone or transport down; loss detection requeues.
		w.logger().Warn("fabric complete failed, abandoning cell to loss detection",
			"worker", w.ID(), "cell", cell.Key, "err", err)
		return
	}
	switch {
	case !resp.Accepted:
		w.rejected.Add(1)
		w.logger().Info("fabric complete rejected",
			"worker", w.ID(), "cell", cell.Key, "reason", resp.Reason)
	case req.Err == "":
		w.completed.Add(1)
	}
}

// heartbeatLoop beats at the coordinator-advertised interval until ctx is
// done, skipping sends while paused. An ok=false answer (coordinator forgot
// us) is left for the claim loop, which re-registers on its next call.
func (w *Worker) heartbeatLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if w.hbPaused.Load() {
				continue
			}
			var resp HeartbeatResponse
			rpc(ctx, w.http(), w.Base, "/v1/workers/heartbeat", HeartbeatRequest{WorkerID: w.ID()}, &resp)
		}
	}
}
