package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scalefold"
)

// job is one queued/running/finished sweep job: the spec, its lifecycle
// state, and the append-only NDJSON event log that streaming clients replay
// and follow.
type job struct {
	id string
	// kind discriminates the job's engine: "" / KindSweep runs the sweep
	// grid from spec; KindSearch runs the adaptive search from search.
	kind    string
	spec    JobSpec
	search  *SearchJobSpec
	cells   int
	created time.Time

	metrics scalefold.SweepMetrics
	// ctx is done once the job is cancelled (or the server closes): every
	// cell still waiting for a compute slot or a remote worker gives up.
	ctx       context.Context
	cancelCtx context.CancelFunc

	// trace records one lifecycle span per settled cell or probe (local,
	// memo or remote lanes), served by GET /v1/jobs/{id}/trace. Created at
	// Submit; immutable pointer, internally synchronized.
	trace *obs.Tracer
	// onState, when set, observes every lifecycle transition (the server's
	// gauge bookkeeping). Called under j.mu; must not block.
	onState func(from, to string)

	mu       sync.Mutex
	state    string
	started  *time.Time
	finished *time.Time
	err      string
	storeErr string
	rows     int // settled rows streamed so far (executed + skipped)
	skipped  int
	// Search-job progress: probes settled, the frontier a finished search
	// found (streamed by finalize, just before the DoneEvent) and its
	// Pareto size.
	probes       int
	frontier     *scalefold.Frontier
	frontierSize int
	events       [][]byte      // marshaled NDJSON lines, append-only
	notify       chan struct{} // closed and replaced on every append/state change
}

// wake signals stream followers. Callers hold j.mu.
func (j *job) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) start() {
	j.mu.Lock()
	// A queued job can be cancel-finalized between the scheduler's dequeue
	// and this call; never resurrect a settled job.
	if !j.finishedLocked() {
		from := j.state
		now := time.Now()
		j.state, j.started = StateRunning, &now
		if j.onState != nil {
			j.onState(from, StateRunning)
		}
		j.wakeLocked()
	}
	j.mu.Unlock()
}

// cancel cancels the job. A job still sitting in the queue settles
// immediately — its status flips to cancelled and its stream ends now, not
// when a scheduler worker eventually dequeues it. A running job's cells see
// its ctx done and drain, and runKind finalizes it; finalize is idempotent,
// so the scheduler's later pass over an already-settled queued job is a
// no-op.
func (j *job) cancel() {
	j.cancelCtx()
	j.mu.Lock()
	if j.state == StateQueued {
		j.finalizeLocked(StateCancelled, nil)
	}
	j.mu.Unlock()
}

func (j *job) noteStoreErr(err error) {
	j.mu.Lock()
	j.storeErr = err.Error()
	j.mu.Unlock()
}

// streamRow is the SweepSpec.OnRow hook: it formats the settled row through
// the canonical result table (so a streamed row is byte-for-byte what the
// CSV/JSON emitters would print for that cell, however it was satisfied) and
// appends it to the event log.
func (j *job) streamRow(i int, row scalefold.SweepRow) {
	if j.ctx.Err() != nil {
		return // a cancelled job streams no more rows
	}
	tab := scalefold.SweepTable([]scalefold.SweepRow{row})
	data := make(map[string]string, len(tab.Header))
	for k, h := range tab.Header {
		data[h] = tab.Rows[0][k]
	}
	j.mu.Lock()
	j.rows++
	if row.SkipReason != "" {
		j.skipped++
	}
	j.appendLocked(RowEvent{Type: "row", Index: i, Status: data["status"], Skip: row.SkipReason, Data: data})
	j.mu.Unlock()
}

// appendLocked appends ev to the event log as one NDJSON line and wakes
// stream followers. Callers hold j.mu.
func (j *job) appendLocked(ev any) {
	line, err := json.Marshal(ev)
	if err != nil {
		return // unreachable: every event type is marshal-safe
	}
	j.events = append(j.events, append(line, '\n'))
	j.wakeLocked()
}

// finalize settles the job's terminal state and appends the DoneEvent that
// ends every stream. Idempotent: the first terminal transition wins.
func (j *job) finalize(state string, err error) {
	j.mu.Lock()
	j.finalizeLocked(state, err)
	j.mu.Unlock()
}

func (j *job) finalizeLocked(state string, err error) {
	if j.finishedLocked() {
		return
	}
	from := j.state
	now := time.Now()
	j.state, j.finished = state, &now
	if j.onState != nil {
		j.onState(from, state)
	}
	if err != nil {
		j.err = err.Error()
	}
	if state == StateDone && j.frontier != nil {
		j.frontierSize = len(j.frontier.Pareto)
		j.appendLocked(FrontierEvent{Type: "frontier", Frontier: *j.frontier})
	}
	j.appendLocked(DoneEvent{
		Type: "done", State: state, Rows: j.rows, Skipped: j.skipped,
		Counts: j.counts(), Error: j.err,
	})
}

// counts snapshots how the job's executed cells were satisfied so far.
func (j *job) counts() Counts {
	return Counts{
		Simulated:   j.metrics.Simulated.Load(),
		StoreHits:   j.metrics.StoreHits.Load(),
		MemoHits:    j.metrics.MemoHits.Load(),
		Remote:      j.metrics.Remote.Load(),
		Analytic:    j.metrics.Analytic.Load(),
		Escalations: j.metrics.Escalated.Load(),
	}
}

// finished reports whether the job reached a terminal state. Callers hold
// j.mu.
func (j *job) finishedLocked() bool {
	return j.state == StateDone || j.state == StateCancelled || j.state == StateFailed
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, State: j.state, Kind: j.kind, Spec: j.spec, Search: j.search,
		Cells: j.cells, Done: j.rows, Skipped: j.skipped,
		Probes: j.probes, FrontierSize: j.frontierSize, Counts: j.counts(),
		Created: j.created, Started: j.started, Finished: j.finished,
		Error: j.err, StoreErr: j.storeErr,
	}
}

// follow returns the events from offset onwards plus the channel to wait on
// for more and whether the log is complete.
func (j *job) follow(offset int) (events [][]byte, done bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < len(j.events) {
		events = j.events[offset:]
	}
	return events, j.finishedLocked() && offset+len(events) == len(j.events), j.notify
}
