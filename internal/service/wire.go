package service

import (
	"time"

	"repro/internal/scalefold"
)

// JobSpec is the wire form of a sweep job, JSON-encoded for POST /v1/jobs:
// a scalefold.SweepSpec, whose JSON fields are the wire schema. Two shapes
// are accepted:
//
//   - Grid axes: the same fields the `scalefold sweep` subcommand exposes as
//     flags. Empty fields take the DefaultSweepSpec values (WithDefaults),
//     so `{}` submits the default 24-cell exploration grid.
//   - Explicit scenarios: `scenarios` carries canonical scenario.Scenario
//     JSON objects, one per cell — the same descriptor the memo and the
//     persistent store are keyed by. When present, the axis fields are
//     ignored and every scenario is validated at submission (400 on the
//     first invalid one).
//
// Unknown fields, the execution hooks included, are refused with 400.
type JobSpec = scalefold.SweepSpec

// Job kinds: the engine a job runs on. The zero kind is a sweep, so
// pre-search clients and stored statuses read unchanged.
const (
	KindSweep  = ""
	KindSearch = "search"
)

// Job states, in lifecycle order.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// Counts is how a job's executed cells were satisfied (see
// scalefold.SweepMetrics), as JobStatus and DoneEvent report it.
type Counts struct {
	Simulated int64 `json:"simulated"`
	StoreHits int64 `json:"store_hits"`
	MemoHits  int64 `json:"memo_hits"`
	// Remote counts cells dispatched to the worker fleet; it is only
	// nonzero on a coordinator-mode server.
	Remote int64 `json:"remote,omitempty"`
	// Analytic counts cells served by the closed-form estimator;
	// Escalations counts auto-mode cells whose error bounds forced exact
	// simulation. Both are zero (and omitted) for plain exact jobs.
	Analytic    int64 `json:"analytic,omitempty"`
	Escalations int64 `json:"escalations,omitempty"`
}

// JobStatus is the wire form of a job's current state, returned by the
// status and listing endpoints and embedded in the submit response.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Kind is KindSearch for adaptive-search jobs, omitted for sweeps.
	Kind string  `json:"kind,omitempty"`
	Spec JobSpec `json:"spec"`
	// Search carries the submitted search spec for KindSearch jobs (Spec is
	// then the zero sweep spec).
	Search *SearchJobSpec `json:"search,omitempty"`
	// Cells is the full grid size (the probe budget, for searches), Done
	// counts settled rows so far (executed or skipped), Skipped the
	// infeasible rows among them.
	Cells   int `json:"cells"`
	Done    int `json:"done"`
	Skipped int `json:"skipped"`
	// Probes counts settled search probes; FrontierSize the Pareto points
	// of a finished search. Both omitted for sweeps.
	Probes       int `json:"probes,omitempty"`
	FrontierSize int `json:"frontier_size,omitempty"`
	Counts

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Error is set for failed jobs; StoreErr records the last persistent-
	// store write failure (the job still completes from memory).
	Error    string `json:"error,omitempty"`
	StoreErr string `json:"store_err,omitempty"`
}

// RowEvent is one NDJSON line of GET /v1/jobs/{id}/stream: a settled sweep
// row. Index is the grid-order row index; Data maps the canonical result-
// table header (scalefold.SweepTable) to the cell's formatted values, so a
// row's bytes are a function of the scenario alone — byte-identical whether
// the cell was simulated, memoized or served from the persistent store.
type RowEvent struct {
	Type   string            `json:"type"` // "row"
	Index  int               `json:"index"`
	Status string            `json:"status"`         // "ok" or "skipped"
	Skip   string            `json:"skip,omitempty"` // reason, for skipped rows
	Data   map[string]string `json:"data"`
}

// DoneEvent is the final NDJSON line of a job stream.
type DoneEvent struct {
	Type    string `json:"type"` // "done"
	State   string `json:"state"`
	Rows    int    `json:"rows"`
	Skipped int    `json:"skipped"`
	Counts
	Error string `json:"error,omitempty"`
}

// HealthStatus is the wire form of GET /v1/healthz: liveness (always OK when
// the server answers at all) plus enough context to read a dashboard without
// three more requests — uptime, build identity, queue depths and fleet size.
type HealthStatus struct {
	OK        bool    `json:"ok"`
	UptimeSec float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	// Revision is the VCS revision stamped into the binary ("" for
	// unstamped builds, e.g. `go test`).
	Revision string `json:"revision,omitempty"`
	// Job-queue depths by lifecycle stage.
	JobsQueued   int `json:"jobs_queued"`
	JobsRunning  int `json:"jobs_running"`
	JobsFinished int `json:"jobs_finished"`
	StoreKeys    int `json:"store_keys"`
	// FleetWorkers and PendingCells are coordinator-mode only: live
	// registered workers and cells queued or assigned on the fabric.
	FleetWorkers int `json:"fleet_workers,omitempty"`
	PendingCells int `json:"pending_cells,omitempty"`
}

// StoreStatus is the wire form of GET /v1/store.
type StoreStatus struct {
	Keys int `json:"keys"`
	// LegacyKeys counts stored results whose key predates the current
	// fingerprint encoding version (scenario.Version). They are kept in the
	// append-only log but never matched by lookups — the documented cost of
	// a deliberate encoding bump. A nonzero count after an upgrade is
	// expected; a nonzero count on a fresh store is a bug.
	LegacyKeys int `json:"legacy_keys,omitempty"`
	// Dir is empty for a memory-only server.
	Dir string `json:"dir,omitempty"`
	// Dropped counts unparsable log lines skipped at startup (disk only).
	Dropped int `json:"dropped,omitempty"`
	// Simulations counts the exact simulations this server ran itself,
	// folded in as each job finishes; fleet workers' simulations are not
	// included.
	Simulations int64 `json:"simulations"`
}
