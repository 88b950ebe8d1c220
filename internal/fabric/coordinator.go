package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// ErrClosed reports dispatch attempted on a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// ErrUnknownWorker reports a claim or heartbeat from a worker ID the
// coordinator does not know — never registered, expired for missed
// heartbeats, or from before a coordinator restart. The worker's recovery
// is to re-register.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// task is one fingerprint-identified cell moving through the coordinator:
// pending (queued), assigned (claimed by a worker), or settled (done=true,
// at which point it leaves the map — the shared store is the durable memo).
type task struct {
	key      string
	cfg      scalefold.StepConfig
	assigned string // worker ID; "" while pending
	retries  int
	waiters  int
	done     bool
	res      cluster.Result
	err      error
	doneCh   chan struct{}

	// Lifecycle instants for the cell report; written under the coordinator
	// lock before doneCh closes, read by waiters after it.
	enqueued  time.Time
	claimedAt time.Time
	settledAt time.Time
	owner     string        // worker that settled the cell
	source    string        // "store-hit" or "simulated" (worker-reported)
	elapsed   time.Duration // worker-measured execution time
}

// CellReport is the coordinator's record of one settled cell — who ran it,
// how it was satisfied, when it was claimed and settled, and how long the
// worker took to run it. Jobs span a remote cell over the worker's run,
// Elapsed ending at Settled (Claimed to Settled when Elapsed is 0), so the
// fleet timeline shows each cell's own execution, not its whole batch's.
type CellReport struct {
	Owner   string // settling worker ID; "coordinator" for a store fast-path hit
	Source  string // "store-hit" or "simulated"
	Claimed time.Time
	Settled time.Time
	Elapsed time.Duration // worker-measured execution time (0 if unreported)
}

// fleetMetrics bundles the coordinator's observability series, minted in its
// Config's registry at NewCoordinator. They are the only record of the
// coordinator's lifetime counts: Fleet reads them back for GET /v1/workers.
type fleetMetrics struct {
	reg        *obs.Registry
	pending    *obs.Gauge
	workers    *obs.Gauge
	completed  *obs.Counter
	reassigned *obs.Counter
	rejected   *obs.Counter
	lost       *obs.Counter
	queueWait  *obs.Histogram
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	return fleetMetrics{
		reg:        r,
		pending:    r.Gauge("scalefold_fabric_pending_cells", "Cells queued and waiting for a worker claim."),
		workers:    r.Gauge("scalefold_fabric_workers", "Live registered workers."),
		completed:  r.Counter("scalefold_fabric_completed_total", "Cells settled by the fleet."),
		reassigned: r.Counter("scalefold_fabric_reassigned_total", "Loss- or error-triggered cell requeues."),
		rejected:   r.Counter("scalefold_fabric_rejected_total", "Refused late or stale complete calls."),
		lost:       r.Counter("scalefold_fabric_lost_workers_total", "Workers expired for missed heartbeats."),
		queueWait:  r.Histogram("scalefold_fabric_queue_wait_seconds", "Time cells spend queued before a claim.", nil),
	}
}

// workerInflight mints (or fetches) the per-worker in-flight gauge.
func (m fleetMetrics) workerInflight(id string) *obs.Gauge {
	return m.reg.Gauge("scalefold_fabric_worker_inflight",
		"Cells currently assigned to the worker.", obs.Label{Key: "worker", Value: id})
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id          string
	name        string
	lastBeat    time.Time
	inflight    map[string]*task
	completed   int64
	simulated   int64
	storeHits   int64
	inflightGge *obs.Gauge // per-worker in-flight gauge
}

// Coordinator owns the dispatch state of the sweep fabric: the fleet
// registry, the fingerprint-deduplicated task queue, and the shared result
// store it settles completed cells into. All methods are safe for concurrent
// use. Create with NewCoordinator; Close fails outstanding dispatches.
type Coordinator struct {
	cfg Config
	st  store.Store[cluster.Result] // shared result store; may be nil

	mu      sync.Mutex
	seq     int
	workers map[string]*workerState
	tasks   map[string]*task // by fingerprint; live (unsettled) tasks only
	queue   []*task          // pending tasks, FIFO with retry priority
	closed  bool
	// wake is closed (and replaced) whenever a task enters the queue and on
	// Close, releasing every claim parked on it to re-check the queue.
	wake chan struct{}
	// parked counts claims currently held waiting on wake (tests wait on
	// it to know a claim is parked).
	parked int

	met fleetMetrics

	stopExpiry chan struct{}
}

// NewCoordinator returns a running coordinator settling results into st
// (which may be nil: results then live only in the completing job's memo).
// Unless cfg.Now is set, a background loop sweeps for lost workers every
// half heartbeat-timeout; with cfg.Now set, expiry runs only inside
// coordinator calls and explicit ExpireNow — deterministic for tests.
func NewCoordinator(cfg Config, st store.Store[cluster.Result]) *Coordinator {
	c := &Coordinator{
		cfg:        cfg.withDefaults(),
		st:         st,
		workers:    map[string]*workerState{},
		tasks:      map[string]*task{},
		wake:       make(chan struct{}),
		stopExpiry: make(chan struct{}),
	}
	c.met = newFleetMetrics(c.cfg.Registry)
	if c.cfg.Now == nil {
		c.cfg.Now = time.Now
		go func() {
			t := time.NewTicker(c.cfg.HeartbeatTimeout / 2)
			defer t.Stop()
			for {
				select {
				case <-c.stopExpiry:
					return
				case <-t.C:
					c.ExpireNow()
				}
			}
		}()
	}
	return c
}

// Close fails every outstanding task and dispatch with ErrClosed, forgets
// the fleet, unparks every held claim (which then returns ErrClosed) and
// stops the expiry loop. Safe to call once; later Execute, Claim and
// Complete calls are refused.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.wakeLocked()
	close(c.stopExpiry)
	for key, t := range c.tasks {
		t.done, t.err = true, ErrClosed
		close(t.doneCh)
		delete(c.tasks, key)
	}
	c.queue = nil
	c.workers = map[string]*workerState{}
	c.mu.Unlock()
}

// RegisterWorker admits a worker to the fleet and returns its identity plus
// the protocol parameters it should run with.
func (c *Coordinator) RegisterWorker(name string) (RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return RegisterResponse{}, ErrClosed
	}
	c.expireLocked(c.cfg.Now())
	c.seq++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", c.seq),
		name:     name,
		lastBeat: c.cfg.Now(),
		inflight: map[string]*task{},
	}
	w.inflightGge = c.met.workerInflight(w.id)
	c.workers[w.id] = w
	c.met.workers.Set(int64(len(c.workers)))
	c.cfg.logger().Info("fabric worker registered", "worker", w.id, "name", name)
	return RegisterResponse{
		WorkerID:               w.id,
		HeartbeatMillis:        c.cfg.HeartbeatInterval.Milliseconds(),
		HeartbeatTimeoutMillis: c.cfg.HeartbeatTimeout.Milliseconds(),
		BatchSize:              c.cfg.BatchSize,
	}, nil
}

// Heartbeat records worker liveness. ErrUnknownWorker tells the worker to
// re-register.
func (c *Coordinator) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.expireLocked(c.cfg.Now())
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastBeat = c.cfg.Now()
	return nil
}

// Claim hands the worker up to max pending cells from the head of the queue,
// oldest first (capped at the configured BatchSize; max <= 0 means
// BatchSize). With wait <= 0 it answers at once. Otherwise, with
// nothing pending, the claim parks (a long poll) until a cell is queued or
// requeued, the wait runs out (empty result), ctx is done (ctx.Err()) or the
// coordinator closes (ErrClosed). Every pass re-runs loss detection and
// counts as a heartbeat; a worker expired while parked gets
// ErrUnknownWorker, never cells.
func (c *Coordinator) Claim(ctx context.Context, workerID string, max int, wait time.Duration) ([]Cell, error) {
	var timer *time.Timer
	timedOut := false
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err // the claimant is gone: hand it nothing
		}
		c.expireLocked(c.cfg.Now())
		w, ok := c.workers[workerID]
		if !ok {
			return nil, ErrUnknownWorker
		}
		w.lastBeat = c.cfg.Now()
		if cells := c.pickLocked(w, max); len(cells) > 0 || wait <= 0 || timedOut {
			return cells, nil
		}
		if timer == nil {
			timer = time.NewTimer(wait)
			defer timer.Stop()
		}
		wake := c.wake
		c.parked++
		c.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			timedOut = true // one last pass, then answer empty
		case <-ctx.Done():
		}
		c.mu.Lock()
		c.parked--
	}
}

// pickLocked assigns up to max cells from the head of the queue (oldest
// first) to w and returns them, nil when the queue is empty.
func (c *Coordinator) pickLocked(w *workerState, max int) []Cell {
	if max <= 0 || max > c.cfg.BatchSize {
		max = c.cfg.BatchSize
	}
	n := min(max, len(c.queue))
	if n == 0 {
		return nil
	}
	now := c.cfg.Now()
	cells := make([]Cell, n)
	for i, t := range c.queue[:n] {
		t.assigned = w.id
		t.claimedAt = now
		if !t.enqueued.IsZero() {
			c.met.queueWait.Observe(now.Sub(t.enqueued).Seconds())
		}
		w.inflight[t.key] = t
		cells[i] = Cell{Key: t.key, Name: t.cfg.Name, Scenario: t.cfg.Scenario}
	}
	c.queue = append(c.queue[:0], c.queue[n:]...)
	c.met.pending.Set(int64(len(c.queue)))
	w.inflightGge.Set(int64(len(w.inflight)))
	return cells
}

// CompleteCell settles one claimed cell from its full wire request, including
// the worker-reported execution timing and source that feed the job trace.
// Rejections are idempotent and mutate nothing: an unknown or expired worker
// (its cells were reassigned), a cell the coordinator no longer tracks
// (already settled by the reassigned run), or a cell tracked but assigned
// elsewhere all report Accepted=false. A worker-reported execution error
// (req.Err) requeues the cell against its retry budget.
func (c *Coordinator) CompleteCell(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return CompleteResponse{Accepted: false, Reason: "coordinator closed"}
	}
	c.expireLocked(c.cfg.Now())
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.met.rejected.Inc()
		return CompleteResponse{Accepted: false, Reason: "unknown or expired worker (cell reassigned)"}
	}
	w.lastBeat = c.cfg.Now()
	t, ok := c.tasks[req.Key]
	if !ok {
		c.met.rejected.Inc()
		return CompleteResponse{Accepted: false, Reason: "cell already settled"}
	}
	if t.assigned != req.WorkerID {
		c.met.rejected.Inc()
		return CompleteResponse{Accepted: false, Reason: "cell reassigned to another worker"}
	}
	delete(w.inflight, req.Key)
	w.inflightGge.Set(int64(len(w.inflight)))
	if req.Err != "" {
		c.requeueLocked(t, fmt.Errorf("fabric: worker %s failed cell %s: %s", req.WorkerID, req.Key, req.Err))
		return CompleteResponse{Accepted: true, Reason: "requeued after worker-reported error"}
	}
	w.completed++
	c.met.completed.Inc()
	if req.Source == "store-hit" {
		w.storeHits++
	} else {
		w.simulated++
	}
	t.owner = req.WorkerID
	t.source = req.Source
	if t.source == "" {
		t.source = "simulated"
	}
	t.elapsed = time.Duration(req.ElapsedMillis * float64(time.Millisecond))
	c.settleLocked(t, req.Result)
	return CompleteResponse{Accepted: true}
}

// settleLocked finishes a task with its result: write-through to the shared
// store (skipped when the store already holds the key — workers sharing the
// store have usually written it already), wake every waiter, and drop the
// task from the live map.
func (c *Coordinator) settleLocked(t *task, res cluster.Result) {
	if c.st != nil {
		if _, ok := c.st.Get(t.key); !ok {
			c.st.Put(t.key, res) // best-effort: waiters get res regardless
		}
	}
	t.done, t.res = true, res
	t.settledAt = c.cfg.Now()
	close(t.doneCh)
	delete(c.tasks, t.key)
}

// requeueLocked returns a lost or failed task to the queue head, failing it
// (and every job waiting on it) once the retry budget is exhausted.
func (c *Coordinator) requeueLocked(t *task, cause error) {
	t.assigned = ""
	t.claimedAt = time.Time{}
	t.retries++
	if t.retries > c.cfg.MaxRetries {
		t.done = true
		t.err = fmt.Errorf("fabric: cell %s failed %d times, retry budget exhausted: %w", t.key, t.retries, cause)
		t.settledAt = c.cfg.Now()
		close(t.doneCh)
		delete(c.tasks, t.key)
		c.cfg.logger().Error("fabric cell retry budget exhausted",
			"cell", t.key, "retries", t.retries, "cause", cause)
		return
	}
	c.met.reassigned.Inc()
	c.queue = append([]*task{t}, c.queue...)
	c.met.pending.Set(int64(len(c.queue)))
	c.wakeLocked()
}

// wakeLocked releases every parked claim to re-check the queue.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// ExpireNow runs loss detection immediately: workers silent past the
// heartbeat timeout are dropped and their in-flight cells requeued.
func (c *Coordinator) ExpireNow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.expireLocked(c.cfg.Now())
	}
}

func (c *Coordinator) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			continue
		}
		delete(c.workers, id)
		c.met.lost.Inc()
		c.met.workers.Set(int64(len(c.workers)))
		w.inflightGge.Set(0)
		c.cfg.logger().Warn("fabric worker lost",
			"worker", id, "name", w.name,
			"silent_for", now.Sub(w.lastBeat), "inflight", len(w.inflight))
		for _, t := range w.inflight {
			c.requeueLocked(t, fmt.Errorf("fabric: worker %s (%s) lost: no heartbeat for %v", id, w.name, now.Sub(w.lastBeat)))
		}
	}
}

// Execute dispatches one cell, keyed by its fingerprint, to the worker fleet
// and blocks until a worker settles it, the retry budget is exhausted, the
// coordinator closes, or ctx is cancelled. Concurrent Executes of the same
// fingerprint share one task (fabric-level singleflight), and a cell already
// in the shared store is served without dispatch.
func (c *Coordinator) Execute(ctx context.Context, cfg scalefold.StepConfig) (cluster.Result, error) {
	res, _, err := c.ExecuteReport(ctx, cfg, cfg.Fingerprint())
	return res, err
}

// ExecuteReport is Execute under the caller's key (a lowered cell's), plus
// the cell's lifecycle report: who settled it, how, and when each stage
// happened — the data a job trace renders as spans. Workers check key
// against the scenario. The report is meaningful only when err is nil.
func (c *Coordinator) ExecuteReport(ctx context.Context, cfg scalefold.StepConfig, key string) (cluster.Result, CellReport, error) {
	if r, ok := scalefold.StoreHit(c.st, key); ok {
		now := c.cfg.Now()
		return r, CellReport{Owner: "coordinator", Source: "store-hit", Claimed: now, Settled: now}, nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return cluster.Result{}, CellReport{}, ErrClosed
	}
	c.expireLocked(c.cfg.Now())
	t, ok := c.tasks[key]
	if !ok {
		t = &task{key: key, cfg: cfg, doneCh: make(chan struct{}), enqueued: c.cfg.Now()}
		c.tasks[key] = t
		c.queue = append(c.queue, t)
		c.met.pending.Set(int64(len(c.queue)))
		c.wakeLocked()
	}
	t.waiters++
	c.mu.Unlock()

	select {
	case <-t.doneCh:
		c.mu.Lock()
		t.waiters--
		c.mu.Unlock()
		// Settled task fields are immutable after doneCh closes.
		return t.res, CellReport{
			Owner: t.owner, Source: t.source,
			Claimed: t.claimedAt, Settled: t.settledAt, Elapsed: t.elapsed,
		}, t.err
	case <-ctx.Done():
		c.mu.Lock()
		t.waiters--
		// Nobody else wants the cell and no worker holds it: withdraw it so
		// the fleet doesn't burn work on a fully cancelled job. An assigned
		// cell is left to finish — its result still lands in the store.
		if t.waiters == 0 && !t.done && t.assigned == "" {
			delete(c.tasks, key)
			rest := c.queue[:0]
			for _, q := range c.queue {
				if q != t {
					rest = append(rest, q)
				}
			}
			c.queue = rest
			c.met.pending.Set(int64(len(c.queue)))
		}
		c.mu.Unlock()
		return cluster.Result{}, CellReport{}, ctx.Err()
	}
}

// Fleet snapshots the coordinator for GET /v1/workers.
func (c *Coordinator) Fleet() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.expireLocked(c.cfg.Now())
	}
	fs := FleetStatus{
		Pending:    len(c.queue),
		Completed:  c.met.completed.Value(),
		Reassigned: c.met.reassigned.Value(),
		Rejected:   c.met.rejected.Value(),
		Lost:       c.met.lost.Value(),
	}
	for _, w := range c.workers {
		fs.Inflight += len(w.inflight)
		fs.Simulated += w.simulated
		fs.StoreHits += w.storeHits
		fs.Workers = append(fs.Workers, WorkerStatus{
			ID: w.id, Name: w.name, LastBeat: w.lastBeat,
			Inflight: len(w.inflight), Completed: w.completed,
			Simulated: w.simulated, StoreHits: w.storeHits,
		})
	}
	// Stable listing order for tests and operators.
	for i := 1; i < len(fs.Workers); i++ {
		for j := i; j > 0 && fs.Workers[j-1].ID > fs.Workers[j].ID; j-- {
			fs.Workers[j-1], fs.Workers[j] = fs.Workers[j], fs.Workers[j-1]
		}
	}
	return fs
}
