package scalefold

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Source names how Resolve satisfied a cell. Cell spans and fabric complete
// calls carry it as text.
type Source string

// The resolution sources.
const (
	FromStore     Source = "store-hit" // served from the persistent store
	FromSimulator Source = "simulated" // ran the exact simulator
	FromEstimate  Source = "analytic"  // served by the closed-form estimator
	FromRemote    Source = "remote"    // dispatched through Resolver.Remote
)

// SweepMetrics counts how cells were satisfied. All fields are safe to read
// concurrently while a run is in progress.
type SweepMetrics struct {
	Simulated atomic.Int64 // ran the exact simulator
	StoreHits atomic.Int64 // served from the persistent store
	MemoHits  atomic.Int64 // settled by the run's in-memory memo (incl. singleflight waits)
	Remote    atomic.Int64 // dispatched through Resolver.Remote
	Analytic  atomic.Int64 // served by the closed-form estimator (package analytic)
	Escalated atomic.Int64 // auto-mode cells whose bounds forced exact simulation
}

// Resolver turns cells into Results. Its lowering is the only code that
// resolves auto mode and keys a cell, and Resolve the only code that applies
// the store-hit rule, estimates, simulates or dispatches, writes results
// through and counts how each cell was satisfied: sweeps, resilience sweeps,
// searches, the figure runners and fabric workers all resolve through one.
// The zero value resolves locally with no store, no counters and no
// concurrency bound. A Resolver memoizes
// the estimator's sampled prep streams for its life — one service job, one
// CLI command, one fabric worker — so estimates that share a seed share
// them, and the memo is freed with the Resolver. Set the fields before
// first use and do not copy a Resolver after it.
type Resolver struct {
	// Store, when non-nil, backs resolution persistently: a stored result
	// is served without computing, and a computed one is written through.
	// Remote results are not: the dispatcher settles those into its own
	// store.
	Store store.Store[cluster.Result]
	// OnStoreErr, when non-nil, receives write-through errors. Resolution
	// proceeds regardless, so a failing store degrades to memory-only.
	OnStoreErr func(error)
	// Metrics, when non-nil, counts how each cell was satisfied.
	Metrics *SweepMetrics
	// OnEstimate, when non-nil, observes the latency of every analytic
	// estimate (store hits excluded).
	OnEstimate func(time.Duration)
	// Trace, when non-nil, records one cat="cell" span per cell: locally
	// resolved cells on a "local-N" lane (N numbers concurrent resolutions),
	// memo hits as zero-length spans on the "memo" lane. Remote cells are
	// left to the Remote dispatcher, which knows the worker that ran them,
	// so every cell appears exactly once whoever executed it.
	Trace *obs.Tracer
	// Slots, when non-nil, is the compute-slot semaphore: each resolution
	// holds one slot throughout. A resolution still waiting for its slot
	// gives up when its ctx is done.
	Slots chan struct{}
	// Remote, when non-nil, replaces local simulation for exact cells the
	// store cannot satisfy: the fabric coordinator dispatches them to its
	// worker fleet under the cell's lowered key. Analytic cells never
	// travel — an estimate costs less than the round trip. A Remote error
	// fails the cell.
	Remote func(ctx context.Context, c StepConfig, key string) (cluster.Result, error)

	own    SweepMetrics                   // counts when Metrics is nil
	prep   sweep.Cache[[][]time.Duration] // the estimator's prep-stream memo, for this Resolver's life
	laneMu sync.Mutex
	free   []string // released trace lanes
	opened int      // trace lanes opened so far
}

// m returns the counters resolution writes to.
func (r *Resolver) m() *SweepMetrics {
	if r.Metrics != nil {
		return r.Metrics
	}
	return &r.own
}

// StoreHit returns st's record for key when it may be served. A record with
// Goodput 0 predates the perturbation layer's Result metrics (every computed
// Result has positive Goodput — exactly 1 on a healthy run): its key is still
// valid, but serving it would print zero goodput where a fresh run reports
// real numbers. Such a record counts as a miss, so it is recomputed
// (bit-identical legacy fields, by the determinism contract) and
// overwritten with the full metrics.
func StoreHit(st store.Store[cluster.Result], key string) (cluster.Result, bool) {
	if st == nil {
		return cluster.Result{}, false
	}
	r, ok := st.Get(key)
	return r, ok && r.Goodput > 0
}

// Resolve turns a lowered cell, c under its key, into its Result: a store
// hit, else an analytic estimate, a Remote dispatch or an exact simulation
// per the cell's mode, written through under key. The lowering keyed the
// cell and resolved its auto mode, so an auto cell here is an error. Resolve
// also fails when ctx is done before the cell starts, when the scenario does
// not lower to simulator options (a platform this build lacks, say) or
// simulate, and when Remote fails.
func (r *Resolver) Resolve(ctx context.Context, c StepConfig, key string) (res cluster.Result, src Source, err error) {
	if c.Mode == scenario.ModeAuto {
		return cluster.Result{}, "", errors.New("scalefold: " + c.Name + ": an auto-mode cell must be lowered before it resolves")
	}
	if r.Slots != nil {
		select {
		case r.Slots <- struct{}{}:
			defer func() { <-r.Slots }()
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return cluster.Result{}, "", err
	}
	if r.Trace != nil {
		lane := r.lane()
		t0 := time.Now()
		defer func() {
			end := time.Now()
			r.release(lane)
			if err == nil && src != FromRemote {
				r.Trace.Span(lane, c.Name, "cell", string(src), key, t0, end)
			}
		}()
	}
	if hit, ok := StoreHit(r.Store, key); ok {
		r.m().StoreHits.Add(1)
		return hit, FromStore, nil
	}
	switch {
	case c.Mode == scenario.ModeAnalytic:
		t0 := time.Now()
		if res, _, err = analytic.EstimateWith(c.Scenario, &r.prep); err != nil {
			return cluster.Result{}, "", err
		}
		if r.OnEstimate != nil {
			r.OnEstimate(time.Since(t0))
		}
		r.m().Analytic.Add(1)
		src = FromEstimate
	case r.Remote != nil:
		if res, err = r.Remote(ctx, c, key); err != nil {
			return cluster.Result{}, "", err
		}
		r.m().Remote.Add(1)
		return res, FromRemote, nil
	default:
		o, err := c.Options()
		if err != nil {
			return cluster.Result{}, "", err
		}
		if res, err = cluster.Simulate(workload.Full(c.Census), c.Ranks, c.DAP, o); err != nil {
			return cluster.Result{}, "", err
		}
		r.m().Simulated.Add(1)
		src = FromSimulator
	}
	if r.Store != nil {
		if err := r.Store.Put(key, res); err != nil && r.OnStoreErr != nil {
			r.OnStoreErr(err)
		}
	}
	return res, src, nil
}

// lower turns c into the cell every later layer reads: the run's memo,
// Resolve, the Remote dispatcher and the coordinator's queue. It validates
// and normalizes the scenario and fills what it leaves unset from its spec —
// simWorkers, the perturbation p, mode — so a scenario's own setting wins
// ("exact" and a no-op perturb block normalize to unset). Auto mode resolves
// to analytic when the estimate's bounds are actionable under
// analytic.DefaultPolicy, else to exact, counted as an escalation: a pure
// function of the scenario, so the same cells escalate on every run and
// carry the fingerprints an explicitly-moded run would. The cell's
// fingerprint is taken here, once.
func (r *Resolver) lower(c StepConfig, simWorkers int, p *perturb.Spec, mode string) (sweep.Cell[StepConfig], error) {
	if err := c.Validate(); err != nil {
		return sweep.Cell[StepConfig]{}, err
	}
	n, _ := c.Normalize() // cannot fail: Validate resolved every reference
	if n.SimWorkers == 0 {
		n.SimWorkers = simWorkers
	}
	if n.Perturb == nil && p != nil {
		// Normalize again, so a no-op spec block folds away and the cell
		// keeps its v3 identity.
		n.Perturb = p
		n, _ = n.Normalize()
	}
	if n.Mode == "" && mode != scenario.ModeExact {
		n.Mode = mode
	}
	if n.Mode == scenario.ModeAuto {
		if _, b, err := analytic.EstimateWith(n, &r.prep); err != nil || analytic.ShouldEscalate(b) {
			n.Mode = ""
			r.m().Escalated.Add(1)
		} else {
			n.Mode = scenario.ModeAnalytic
		}
	}
	c.Scenario = n
	return sweep.Cell[StepConfig]{Key: c.Fingerprint(), Label: c.Name, Config: c}, nil
}

// memoHit counts a cell the run's memo settled without resolving it, and
// spans it on the "memo" lane so trace coverage stays one span per cell.
func (r *Resolver) memoHit(name, key string) {
	r.m().MemoHits.Add(1)
	if r.Trace != nil {
		now := time.Now()
		r.Trace.Span("memo", name, "cell", "memo", key, now, now)
	}
}

// lane takes a free trace lane, opening a new one when all are busy, so
// concurrent resolutions never share a lane. A lane's name is built once,
// when it opens.
func (r *Resolver) lane() string {
	r.laneMu.Lock()
	defer r.laneMu.Unlock()
	if n := len(r.free); n > 0 {
		l := r.free[n-1]
		r.free = r.free[:n-1]
		return l
	}
	r.opened++
	return "local-" + strconv.Itoa(r.opened-1)
}

func (r *Resolver) release(lane string) {
	r.laneMu.Lock()
	r.free = append(r.free, lane)
	r.laneMu.Unlock()
}
