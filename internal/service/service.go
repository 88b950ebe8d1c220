// Package service is the serving layer over the sweep engine: a long-running
// HTTP server (`scalefold serve`) that accepts sweep-spec jobs, schedules
// them FIFO on a shared bounded worker pool, streams per-cell results as
// NDJSON, and backs the scenario memo with a persistent fingerprint-keyed
// result store (package store) — so results survive restarts and are shared
// across every job, every CLI sweep and every figure runner pointed at the
// same store directory.
//
// Endpoints (all JSON):
//
//	POST   /v1/jobs             submit a JobSpec; 202 + JobStatus
//	GET    /v1/jobs             list jobs, submit order
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/stream NDJSON RowEvents, ending with a DoneEvent
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON of the job's cells
//	GET    /v1/store            persistent-store statistics
//	GET    /v1/healthz          liveness + uptime, build and queue summary
//	GET    /v1/metrics          Prometheus text exposition
package service

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Config sizes the server.
type Config struct {
	// StoreDir roots the persistent result store; "" serves from memory
	// only (results then die with the process).
	StoreDir string
	// StoreCache bounds the persistent store's decoded-value cache (entries
	// kept unmarshalled in memory; the index itself holds only disk
	// offsets). <= 0 means store.DefaultCacheEntries.
	StoreCache int
	// Workers bounds total in-flight simulations across ALL jobs — the
	// shared worker pool. <= 0 means GOMAXPROCS.
	Workers int
	// MaxActiveJobs bounds concurrently executing jobs (they share the
	// Workers pool; more active jobs trades per-job latency for fairness).
	// <= 0 means 2.
	MaxActiveJobs int
	// QueueLimit bounds queued-but-not-started jobs; submissions beyond it
	// are refused with 503. <= 0 means 64.
	QueueLimit int
	// MaxFinishedJobs bounds how many terminal jobs (and their streamed
	// event logs) are retained for listing and replay; the oldest finished
	// jobs are evicted first, at submission time, so a long-running server
	// does not grow without bound. <= 0 means 256.
	MaxFinishedJobs int
	// Fabric, when non-nil, runs the server in coordinator mode: jobs'
	// store-miss cells are dispatched to registered fleet workers over the
	// /v1/workers endpoints instead of simulated in-process. The zero
	// fabric.Config is valid (protocol defaults apply).
	Fabric *fabric.Config
	// Registry collects the server's metrics (job lifecycle, store latencies,
	// fabric queue depths) for GET /v1/metrics. nil mints a private registry,
	// so the endpoint always serves; pass one to share series with other
	// subsystems in the same process.
	Registry *obs.Registry
	// Log receives structured server diagnostics. nil discards them.
	Log *slog.Logger
}

// persistentStore is the slice of Disk/Shared the server drives beyond the
// plain Store reads and writes: directory identity for status reporting,
// torn-record accounting, and shutdown flush.
type persistentStore interface {
	store.Store[cluster.Result]
	Dir() string
	Dropped() int
	Close() error
}

// Server owns the job queue, the shared worker pool and the result store.
// Create with New, serve its Handler, and Close it on shutdown.
type Server struct {
	cfg      Config
	st       store.Store[cluster.Result]
	disk     persistentStore     // nil when memory-only
	coord    *fabric.Coordinator // nil unless coordinator mode
	slots    chan struct{}       // shared simulation-concurrency pool
	reg      *obs.Registry
	log      *slog.Logger
	met      svcMetrics
	started  time.Time
	revision string // VCS revision from build info, "" when unstamped

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job IDs in submit order
	seq    int
	closed bool

	queue chan *job
	wg    sync.WaitGroup
}

// svcMetrics bundles the server's own observability series: job lifecycle
// gauges and counters. Store and fabric series live in their layers, wired to
// the same registry at New.
type svcMetrics struct {
	submitted *obs.Counter
	queued    *obs.Gauge
	running   *obs.Gauge
	// finished counts jobs by terminal state (done, cancelled, failed).
	finished map[string]*obs.Counter
	// retained is the NDJSON event-log bytes held by retained finished
	// jobs: a job adds its log at finalize, and eviction takes it back.
	retained *obs.Gauge
	// The analytic fast path: how many cells the closed-form estimator
	// served vs the exact simulator, how many auto-mode cells escalated,
	// and the estimator's latency distribution.
	analyticCells *obs.Counter
	exactCells    *obs.Counter
	escalations   *obs.Counter
	estimateHist  *obs.Histogram
	// Adaptive search: settled probes by resolution source, the latest
	// finished frontier's size, and per-probe wall-clock latency.
	searchProbes map[string]*obs.Counter
	frontierSize *obs.Gauge
	probeHist    *obs.Histogram
}

// probeSources are the scalefold.SearchSpec.OnProbe resolution sources and
// terminalStates the job states a job finishes in; a series for each is
// minted at New so it exposits at zero from first scrape.
var (
	probeSources   = []string{"analytic", "exact", "memo-hit"}
	terminalStates = []string{StateDone, StateCancelled, StateFailed}
)

func newSvcMetrics(r *obs.Registry) svcMetrics {
	m := svcMetrics{
		submitted: r.Counter("scalefold_service_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		queued:    r.Gauge("scalefold_service_jobs_queued", "Jobs waiting for a scheduler slot."),
		running:   r.Gauge("scalefold_service_jobs_running", "Jobs currently executing."),
		finished:  map[string]*obs.Counter{},
		retained: r.Gauge("scalefold_service_retained_event_bytes",
			"NDJSON event-log bytes held by retained finished jobs."),
		analyticCells: r.Counter("scalefold_service_analytic_cells_total",
			"Cells served by the closed-form analytic estimator."),
		exactCells: r.Counter("scalefold_service_exact_cells_total",
			"Cells resolved by running the exact simulator."),
		escalations: r.Counter("scalefold_service_escalations_total",
			"Auto-mode cells whose analytic bounds forced exact simulation."),
		estimateHist: r.Histogram("scalefold_analytic_estimate_seconds",
			"Latency of one closed-form analytic estimate.", nil),
		searchProbes: map[string]*obs.Counter{},
		frontierSize: r.Gauge("scalefold_search_frontier_size",
			"Pareto-frontier size of the most recently finished search job."),
		probeHist: r.Histogram("scalefold_search_probe_seconds",
			"Wall-clock latency of one adaptive-search probe.", nil),
	}
	for _, src := range probeSources {
		m.searchProbes[src] = r.Counter("scalefold_search_probes_total",
			"Adaptive-search probes settled, by resolution source.",
			obs.Label{Key: "source", Value: src})
	}
	for _, st := range terminalStates {
		m.finished[st] = r.Counter("scalefold_service_jobs_finished_total",
			"Jobs reaching a terminal state.", obs.Label{Key: "state", Value: st})
	}
	return m
}

// jobState is the job lifecycle hook: it keeps the queued/running gauges
// consistent across every transition (including cancel-while-queued) and
// counts terminal states. Called under the job's mutex; every operation here
// is a lock-free write to a series minted at New.
func (m svcMetrics) jobState(from, to string) {
	switch from {
	case StateQueued:
		m.queued.Add(-1)
	case StateRunning:
		m.running.Add(-1)
	}
	switch to {
	case StateRunning:
		m.running.Add(1)
	default:
		m.finished[to].Inc()
	}
}

// New opens the store (replaying any existing segments) and starts the
// scheduler goroutines.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 2
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.MaxFinishedJobs <= 0 {
		cfg.MaxFinishedJobs = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueLimit),
		reg:     cfg.Registry,
		log:     cfg.Log,
		met:     newSvcMetrics(cfg.Registry),
		started: time.Now(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.revision = kv.Value
			}
		}
	}
	// Legacy keys can only come from a pre-upgrade store on disk; the store
	// counts them incrementally while replaying its segments (no key scan,
	// no value decodes), and `scalefold store compact` sheds them.
	storeOpts := []store.Option{
		store.WithLegacyKey(func(k string) bool { return !scenario.IsCurrentKey(k) }),
	}
	if cfg.StoreCache > 0 {
		storeOpts = append(storeOpts, store.WithCache(cfg.StoreCache))
	}
	switch {
	case cfg.StoreDir != "" && cfg.Fabric != nil:
		// A coordinator shares its store directory with the worker fleet,
		// so it must join as one more Shared owner: a Get miss then tails
		// the workers' segments and finds their records, instead of the
		// coordinator re-writing every settled cell as a duplicate.
		storeOpts = append(storeOpts, store.WithMetrics(store.NewMetrics(s.reg, "shared")))
		sh, err := store.OpenShared[cluster.Result](cfg.StoreDir, "coordinator", storeOpts...)
		if err != nil {
			return nil, err
		}
		s.disk, s.st = sh, sh
	case cfg.StoreDir != "":
		// Metrics attach at open (not after) so the replay itself — sidecar
		// warm loads vs self-healed scans — shows up in the registry.
		storeOpts = append(storeOpts, store.WithMetrics(store.NewMetrics(s.reg, "disk")))
		d, err := store.OpenDisk[cluster.Result](cfg.StoreDir, storeOpts...)
		if err != nil {
			return nil, err
		}
		s.disk, s.st = d, d
	default:
		s.st = store.NewMem[cluster.Result](store.WithMetrics(store.NewMetrics(s.reg, "mem")))
	}
	if cfg.Fabric != nil {
		// Share the server's registry and logger with the coordinator unless
		// the fabric config brought its own.
		fc := *cfg.Fabric
		if fc.Registry == nil {
			fc.Registry = s.reg
		}
		if fc.Log == nil {
			fc.Log = s.log
		}
		s.coord = fabric.NewCoordinator(fc, s.st)
	}
	for i := 0; i < cfg.MaxActiveJobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				run := s.runSweep
				if j.kind == KindSearch {
					run = s.runSearch
				}
				s.runKind(j, func(ctx context.Context, r *scalefold.Resolver) error { return run(ctx, j, r) })
			}
		}()
	}
	return s, nil
}

// Store exposes the server's result store (read-mostly: stats, tests).
func (s *Server) Store() store.Store[cluster.Result] { return s.st }

// Coordinator exposes the fabric coordinator (nil unless the server was
// configured with Config.Fabric).
func (s *Server) Coordinator() *fabric.Coordinator { return s.coord }

// Close stops accepting jobs, cancels whatever is queued or running, waits
// for the schedulers to drain and closes the store. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
	close(s.queue)
	s.mu.Unlock()
	// Fail the fabric's outstanding tasks before waiting: a scheduler worker
	// parked in a remote Execute must be unblocked for the drain to finish.
	if s.coord != nil {
		s.coord.Close()
	}
	s.wg.Wait()
	if s.disk != nil {
		return s.disk.Close()
	}
	return nil
}

// Submit validates and enqueues a sweep job, returning its initial status.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, &BadSpecError{Err: err}
	}
	j := &job{spec: spec, cells: spec.Cells()}
	st, err := s.enqueue(j)
	if err != nil {
		return JobStatus{}, err
	}
	s.log.Info("job submitted", "job", j.id, "cells", j.cells)
	return st, nil
}

// enqueue assigns the pre-validated job its identity and lifecycle plumbing
// and places it on the scheduler queue — the shared tail of Submit and
// SubmitSearch. Callers set kind, spec/search and cells.
func (s *Server) enqueue(j *job) (JobStatus, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: server is shutting down")
	}
	// Evict before the new job is queued: a scheduler may run it to the end
	// before this returns, and it must not count against its own submission.
	s.pruneLocked()
	s.seq++
	j.id = fmt.Sprintf("job-%06d", s.seq)
	j.state = StateQueued
	j.created = time.Now()
	j.notify = make(chan struct{})
	j.ctx, j.cancelCtx = context.WithCancel(context.Background())
	j.trace = obs.NewTracer()
	j.onState = s.met.jobState
	j.retained = s.met.retained
	// Count the job queued before it is visible to a scheduler: start() fires
	// the queued→running transition as soon as a worker dequeues it.
	s.met.queued.Add(1)
	select {
	case s.queue <- j:
	default:
		s.seq--
		s.met.queued.Add(-1)
		s.mu.Unlock()
		return JobStatus{}, &QueueFullError{Limit: s.cfg.QueueLimit}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.met.submitted.Inc()
	return j.status(), nil
}

// pruneLocked evicts the oldest terminal jobs beyond the retention limit.
// Open streams keep their *job alive through their own reference; eviction
// only stops new lookups. Callers hold s.mu.
func (s *Server) pruneLocked() {
	finished := 0
	for _, id := range s.order {
		s.jobs[id].mu.Lock()
		done := s.jobs[id].finishedLocked()
		s.jobs[id].mu.Unlock()
		if done {
			finished++
		}
	}
	if finished <= s.cfg.MaxFinishedJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		done := j.finishedLocked()
		logBytes := j.logBytes
		j.mu.Unlock()
		if done && finished > s.cfg.MaxFinishedJobs {
			delete(s.jobs, id)
			s.met.retained.Add(-logBytes)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// BadSpecError marks a submission refused for an invalid sweep spec (400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }

// QueueFullError marks a submission refused for backpressure (503).
type QueueFullError struct{ Limit int }

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: job queue full (%d)", e.Limit)
}

// Job returns a job's status by ID.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs returns every job's status in submit order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel cancels a queued or running job. Cancelling a finished job is a
// no-op; an unknown ID reports false.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	j.cancel()
	return j.status(), true
}

// StoreStatus reports the persistent store's state.
func (s *Server) StoreStatus() StoreStatus {
	st := StoreStatus{Keys: s.st.Len(), Simulations: s.met.exactCells.Value()}
	if lg, ok := s.st.(interface{ Legacy() int }); ok {
		st.LegacyKeys = lg.Legacy() // live count: compaction sheds legacy keys
	}
	if s.disk != nil {
		st.Dir = s.disk.Dir()
		st.Dropped = s.disk.Dropped()
	}
	return st
}

// CompactStore rewrites the persistent store down to its live records,
// shedding overwritten duplicates and legacy-generation keys (admin
// endpoint POST /v1/store/compact). Jobs keep running: reads stay live
// throughout, writes block only for the rewrite itself. Memory-only servers
// report ok=false.
func (s *Server) CompactStore() (store.CompactStats, bool, error) {
	c, ok := s.st.(interface {
		Compact() (store.CompactStats, error)
	})
	if !ok {
		return store.CompactStats{}, false, nil
	}
	st, err := c.Compact()
	if err != nil {
		return store.CompactStats{}, true, err
	}
	s.log.Info("store compacted",
		"keys", st.Keys, "rewritten", st.Rewritten, "dropped_legacy", st.DroppedLegacy,
		"segments_before", st.SegmentsBefore, "segments_after", st.SegmentsAfter,
		"bytes_before", st.BytesBefore, "bytes_after", st.BytesAfter)
	return st, true, nil
}

// runKind is the one job lifecycle, shared by sweep and search jobs: it
// settles a job cancelled while queued, starts it, wires the job's Resolver
// to the server — its store, and either the shared compute slots or, in
// coordinator mode, the worker fleet — runs the kind's body, folds the job's
// resolution counts into the server-lifetime series and finalizes it.
// Cancellation wins over failure: a cancelled job's cells fail with its ctx
// error, but the user asked for cancel.
func (s *Server) runKind(j *job, run func(context.Context, *scalefold.Resolver) error) {
	if j.ctx.Err() != nil {
		j.finalize(StateCancelled, nil)
		return
	}
	j.start()
	r := &scalefold.Resolver{
		Store:      s.st,
		OnStoreErr: j.noteStoreErr,
		Metrics:    &j.metrics,
		OnEstimate: func(d time.Duration) { s.met.estimateHist.Observe(d.Seconds()) },
		Trace:      j.trace,
	}
	if s.coord == nil {
		r.Slots = s.slots
	} else {
		// Coordinator mode: exact cells the store cannot satisfy go to the
		// fleet. The Resolver leaves remote cells unspanned (see
		// Resolver.Trace); record them here with the coordinator's true
		// attribution — the settling worker's ID (or "coordinator" for its
		// store fast path) and the worker's run of the cell, its reported
		// execution time ending at settle (claim→settle when it reported
		// none) — so every cell appears in the job trace exactly once
		// whoever ran it, and cells of one claimed batch do not overlap.
		r.Remote = func(ctx context.Context, c scalefold.StepConfig, key string) (cluster.Result, error) {
			res, rep, err := s.coord.ExecuteReport(ctx, c, key)
			if err != nil {
				return res, err
			}
			start, end := rep.Claimed, rep.Settled
			if rep.Elapsed > 0 {
				start = end.Add(-rep.Elapsed)
			} else if start.IsZero() {
				start = end
			}
			j.trace.Span(rep.Owner, c.Name, "cell", rep.Source, key, start, end)
			return res, nil
		}
	}
	err := run(j.ctx, r)
	// Fold the job's resolution counts into the server-lifetime series —
	// whatever terminal state the job reached, these count work that
	// actually happened.
	c := j.counts()
	s.met.analyticCells.Add(c.Analytic)
	s.met.exactCells.Add(c.Simulated)
	s.met.escalations.Add(c.Escalations)
	switch {
	case j.ctx.Err() != nil:
		j.finalize(StateCancelled, nil)
		s.log.Info("job cancelled", "job", j.id, "kind", j.kind)
	case err != nil:
		j.finalize(StateFailed, err)
		s.log.Error("job failed", "job", j.id, "kind", j.kind, "err", err)
	default:
		j.finalize(StateDone, nil)
		s.log.Info("job done", "job", j.id, "kind", j.kind,
			"simulated", c.Simulated,
			"store_hits", c.StoreHits,
			"memo_hits", c.MemoHits,
			"remote", c.Remote,
			"analytic", c.Analytic,
			"escalations", c.Escalations)
	}
}

// runSweep is a sweep job's body. Cells resolve through a job-local memo
// (singleflight within the job), then r: the server's persistent store
// (shared across jobs and restarts), and only then the estimator, the
// simulator or the fleet.
func (s *Server) runSweep(ctx context.Context, j *job, r *scalefold.Resolver) error {
	sw := j.spec
	sw.Cache, sw.Resolver, sw.OnRow = nil, r, j.streamRow
	if s.coord != nil {
		// Coordinator mode: engine "workers" are dispatch waiters, not
		// simulations — size them to the grid (capped), never to this
		// machine's core count, or a single-core coordinator would serialize
		// the whole fleet. The slot semaphore and the SimWorkers clamp guard
		// local compute; neither applies when the compute happens elsewhere.
		if sw.Workers <= 0 {
			sw.Workers = min(j.cells, 64)
		}
	} else {
		if sw.Workers <= 0 || sw.Workers > s.cfg.Workers {
			sw.Workers = s.cfg.Workers
		}
		// SimWorkers shards work *inside* each slotted cell, which the slot
		// semaphore cannot see — unclamped, one job could multiply the
		// server's compute concurrency past the pool. Bound the product of
		// cell parallelism and intra-cell shards by the pool size (results
		// are identical at any width, so clamping only costs latency).
		// Explicit scenarios carry their own sim_workers, so those are
		// clamped too — on a copy, leaving the job's submitted spec as
		// received.
		simLim := max(s.cfg.Workers/sw.Workers, 1)
		sw.SimWorkers = min(sw.SimWorkers, simLim)
		cloned := false
		for i := range sw.Scenarios {
			if sw.Scenarios[i].SimWorkers > simLim {
				if !cloned {
					sw.Scenarios = append([]scenario.Scenario(nil), sw.Scenarios...)
					cloned = true
				}
				sw.Scenarios[i].SimWorkers = simLim
			}
		}
	}
	_, err := sw.Run(ctx, nil)
	return err
}

// Health snapshots the server for GET /v1/healthz: liveness plus uptime,
// build identity, job-queue depths and (in coordinator mode) fleet size.
func (s *Server) Health() HealthStatus {
	h := HealthStatus{
		OK:        true,
		UptimeSec: time.Since(s.started).Seconds(),
		GoVersion: runtime.Version(),
		Revision:  s.revision,
		StoreKeys: s.st.Len(),
	}
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			h.JobsQueued++
		case StateRunning:
			h.JobsRunning++
		default:
			h.JobsFinished++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if s.coord != nil {
		fs := s.coord.Fleet()
		h.FleetWorkers = len(fs.Workers)
		h.PendingCells = fs.Pending + fs.Inflight
	}
	return h
}
