package scalefold

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
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

// Resolver turns cells into Results. Its Resolve method is the only code
// that resolves auto mode, applies the store-hit rule, estimates, simulates
// or dispatches, writes results through and counts how each cell was
// satisfied: sweeps, resilience sweeps, searches, the figure runners and
// fabric workers all resolve through one. The zero value resolves locally
// with no store, no counters and no concurrency bound. Set the fields before
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
	// worker fleet. Analytic cells never travel — an estimate costs less
	// than the round trip. A Remote error fails the cell.
	Remote func(ctx context.Context, c StepConfig) (cluster.Result, error)

	own    SweepMetrics // counts when Metrics is nil
	laneMu sync.Mutex
	free   []int // released trace lanes
	opened int   // trace lanes opened so far
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

// Resolve turns one cell into its Result: a store hit, else an analytic
// estimate, a Remote dispatch or an exact simulation per the cell's
// (resolved) mode, written through to the store. It fails when ctx is done
// before the cell starts, when the scenario does not lower (a platform this
// build lacks, say) and when Remote fails.
func (r *Resolver) Resolve(ctx context.Context, c StepConfig) (res cluster.Result, src Source, err error) {
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
	c.Scenario = r.resolveMode(c.Scenario, "")
	key := c.Fingerprint()
	if r.Trace != nil {
		lane := r.lane()
		t0 := time.Now()
		defer func() {
			end := time.Now()
			r.release(lane)
			if err == nil && src != FromRemote {
				owner := "local-" + strconv.Itoa(lane)
				r.Trace.Span(owner, c.Name, "cell", t0, end, map[string]string{
					"owner": owner, "source": string(src), "key": key,
				})
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
		if res, _, err = analytic.Estimate(c.Scenario); err != nil {
			return cluster.Result{}, "", err
		}
		if r.OnEstimate != nil {
			r.OnEstimate(time.Since(t0))
		}
		r.m().Analytic.Add(1)
		src = FromEstimate
	case r.Remote != nil:
		if res, err = r.Remote(ctx, c); err != nil {
			return cluster.Result{}, "", err
		}
		r.m().Remote.Add(1)
		return res, FromRemote, nil
	default:
		o, err := c.Options()
		if err != nil {
			return cluster.Result{}, "", err
		}
		res = cluster.Simulate(censusFor(c.Census), c.Ranks, c.DAP, o)
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

// resolveMode stamps mode on a scenario that names none (a scenario's own
// mode wins, as its perturb block outranks a spec's) and resolves auto mode
// to its concrete per-cell resolution: analytic when the estimate's bounds
// are actionable under analytic.DefaultPolicy, exact — counted as an
// escalation — when they straddle a decision boundary or the estimator
// fails. Deterministic, since the estimator is a pure function of the
// scenario: the same cells escalate on every run, machine and worker count.
// Sweeps and searches call it while lowering, so the cells they memoize
// carry the same analytic or exact fingerprints an explicitly-moded run
// would.
func (r *Resolver) resolveMode(n scenario.Scenario, mode string) scenario.Scenario {
	if n.Mode == "" && mode != scenario.ModeExact {
		n.Mode = mode
	}
	if n.Mode == scenario.ModeAuto {
		if _, b, err := analytic.Estimate(n); err != nil || analytic.ShouldEscalate(b) {
			n.Mode = ""
			r.m().Escalated.Add(1)
		} else {
			n.Mode = scenario.ModeAnalytic
		}
	}
	return n
}

// memoHit counts a cell the run's memo settled without resolving it, and
// spans it on the "memo" lane so trace coverage stays one span per cell.
func (r *Resolver) memoHit(name, key string) {
	r.m().MemoHits.Add(1)
	if r.Trace != nil {
		now := time.Now()
		r.Trace.Span("memo", name, "cell", now, now, map[string]string{
			"owner": "memo", "source": "memo", "key": key,
		})
	}
}

// must resolves a cell known to lower — one this package's configuration
// helpers built, or one a RunVia caller validated — so a failure is a
// programming error.
func (r *Resolver) must(c StepConfig) cluster.Result {
	res, _, err := r.Resolve(context.Background(), c)
	if err != nil {
		panic("scalefold: " + c.Name + ": " + err.Error())
	}
	return res
}

// lane takes a free trace lane, opening a new one when all are busy, so
// concurrent resolutions never share a lane.
func (r *Resolver) lane() int {
	r.laneMu.Lock()
	defer r.laneMu.Unlock()
	if n := len(r.free); n > 0 {
		l := r.free[n-1]
		r.free = r.free[:n-1]
		return l
	}
	r.opened++
	return r.opened - 1
}

func (r *Resolver) release(lane int) {
	r.laneMu.Lock()
	r.free = append(r.free, lane)
	r.laneMu.Unlock()
}
