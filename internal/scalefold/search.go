package scalefold

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sweep"
)

// Frontier is the adaptive search's report (see package search); re-exported
// so service and CLI callers need only this package.
type Frontier = search.Frontier

// SearchSpec declares an adaptive search over the scenario space: instead of
// enumerating a (ranks × DAP × failure-rate) grid, the search driver
// (package search) bisects the failure axis around the goodput cliff,
// detects the knee of the ranks-scaling curve, and refines the Pareto
// frontier over (cost, goodput) — spending a bounded probe budget where the
// answer changes. The `scalefold optimize` subcommand and POST /v1/search
// are shims over this type.
//
// Every probe lowers to the optimized Figure 7 configuration at the probed
// point (plus the cell's failure perturbation) and resolves through the
// standard chain — memo cache, persistent store, then analytic estimate or
// exact simulation per Mode — under exactly the fingerprints an equivalent
// sweep would use. Probes are therefore memoized and deterministic: the same
// spec against the same store yields a byte-identical Frontier with zero new
// simulations.
type SearchSpec struct {
	// Objective picks what to optimize: "maximize-goodput" (default) or
	// "minimize-cost-steptime" (ranks × mean step seconds). An unknown
	// spelling is a validation error (400 at POST /v1/search).
	Objective string
	// Platform names the hardware profile ("H100", "a100-selene", ...).
	Platform string
	// Ranks is the ascending ranks ladder; DAPs the widths considered (a
	// width applies to a rung only when it divides it; at least one width
	// must divide every rung).
	Ranks []int
	DAPs  []int
	// FailLo/FailHi bound the failure-rate axis (per-rank per-step fatal
	// failure probability) searched for the goodput cliff.
	FailLo, FailHi float64
	// RestartCost is the checkpoint-restart cost in seconds every injected
	// failure pays (perturb.Spec.RestartCost).
	RestartCost float64
	// CliffGoodput is the goodput threshold whose crossing defines the
	// cliff; Tolerance the bisection stop width in decades.
	CliffGoodput float64
	Tolerance    float64
	// Budget bounds unique probes; memoized re-probes are free.
	Budget int
	// Steps is the per-simulation step count (0 keeps the simulator
	// default; the resilience experiments use 24).
	Steps int
	// Mode selects probe resolution, as in SweepSpec.Mode — except the
	// default here is "auto": analytic estimates for cheap exploration,
	// escalating to exact simulation only the probes whose error bounds
	// straddle a decision boundary. Pass "exact" to force the simulator.
	Mode string
	// Execution knobs, as in SweepSpec. Probes run sequentially (each
	// depends on the previous answers), so there is no Workers axis;
	// SimWorkers shards inside each simulation.
	SimWorkers int
	Cache      *sweep.Cache[cluster.Result]
	Resolver   *Resolver
	// OnProbe, when non-nil, observes every settled probe with its
	// resolution source ("analytic", "exact", "memo-hit") and wall-clock
	// latency — the service's probe stream and metrics hang off it.
	OnProbe func(p search.Probe, source string, d time.Duration)
}

// DefaultSearchSpec is the out-of-the-box search: the optimized profile on
// the H100 ladder up to the paper's 1024-rank flagship, the resilience
// experiments' failure-rate span and 24-step resolution, auto-mode probes.
func DefaultSearchSpec() SearchSpec {
	return SearchSpec{
		Objective:    string(search.MaxGoodput),
		Platform:     "H100",
		Ranks:        []int{128, 256, 512, 1024},
		DAPs:         []int{1, 2, 4, 8},
		FailLo:       1e-6,
		FailHi:       1e-2,
		RestartCost:  60,
		CliffGoodput: 0.5,
		Tolerance:    0.1,
		Budget:       64,
		Steps:        24,
		Mode:         scenario.ModeAuto,
	}
}

// WithDefaults fills unset fields from DefaultSearchSpec (the service's
// `{}`-submits-the-default contract, like SweepSpec.WithDefaults). Note
// Mode: the empty string means "auto" here, not "exact" — exploration is
// the point; spell out "exact" to force the simulator.
func (s SearchSpec) WithDefaults() SearchSpec {
	d := DefaultSearchSpec()
	if s.Objective == "" {
		s.Objective = d.Objective
	}
	if s.Platform == "" {
		s.Platform = d.Platform
	}
	if len(s.Ranks) == 0 {
		s.Ranks = d.Ranks
	}
	if len(s.DAPs) == 0 {
		s.DAPs = d.DAPs
	}
	if s.FailLo == 0 {
		s.FailLo = d.FailLo
	}
	if s.FailHi == 0 {
		s.FailHi = d.FailHi
	}
	if s.RestartCost == 0 {
		s.RestartCost = d.RestartCost
	}
	if s.CliffGoodput == 0 {
		s.CliffGoodput = d.CliffGoodput
	}
	if s.Tolerance == 0 {
		s.Tolerance = d.Tolerance
	}
	if s.Budget == 0 {
		s.Budget = d.Budget
	}
	if s.Steps == 0 {
		s.Steps = d.Steps
	}
	if s.Mode == "" {
		s.Mode = d.Mode
	}
	return s
}

// options lowers the spec to driver options (probe and hooks unset).
func (s SearchSpec) options() search.Options {
	obj, _ := search.ParseObjective(s.Objective)
	return search.Options{
		Objective:    obj,
		Ranks:        s.Ranks,
		DAPs:         s.DAPs,
		FailLo:       s.FailLo,
		FailHi:       s.FailHi,
		CliffGoodput: s.CliffGoodput,
		Tolerance:    s.Tolerance,
		Budget:       s.Budget,
	}
}

// Validate rejects spec-wide mistakes without probing anything: an unknown
// objective, platform or mode, an infeasible ladder, a bad failure-rate
// range or perturbation. The service validates POST /v1/search submissions
// with it (defaults applied first), mapping failures to 400.
func (s SearchSpec) Validate() error {
	s = s.WithDefaults()
	if _, err := search.ParseObjective(s.Objective); err != nil {
		return err
	}
	if err := s.options().Validate(); err != nil {
		return err
	}
	if s.SimWorkers < 0 {
		return fmt.Errorf("search: sim-workers must be >= 0, got %d", s.SimWorkers)
	}
	if !scenario.ValidMode(s.Mode) {
		return fmt.Errorf("search: unknown mode %q (want one of %v)", s.Mode, scenario.Modes)
	}
	if _, err := scenario.PlatformByName(s.Platform); err != nil {
		return fmt.Errorf("search: %v", err)
	}
	// The perturbation every failure-axis probe carries must be valid at
	// its most extreme (FailHi); this catches restart-cost and probability
	// bounds in one place.
	p := perturb.Spec{FailProb: s.FailHi, RestartCost: s.RestartCost}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	// And the flagship scenario itself must lower: probes are Figure 7
	// configurations, so an ill-sized ladder fails here, not mid-search.
	ranks := s.Ranks[len(s.Ranks)-1]
	for _, dap := range s.DAPs {
		if ranks%dap != 0 {
			continue
		}
		if err := s.configFor(search.Point{Ranks: ranks, DAP: dap}).Validate(); err != nil {
			return fmt.Errorf("search: ranks=%d dap=%d: %w", ranks, dap, err)
		}
	}
	return nil
}

// configFor builds one probe point's configuration: the optimized Figure 7
// configuration at the point, with the spec's step count and the point's
// failure perturbation. Lowered through the Resolver as a sweep cell is, a
// probe shares its fingerprint, memo entry and store record with the
// equivalent sweep and resilience cells.
func (s SearchSpec) configFor(pt search.Point) StepConfig {
	c := Figure7Config(s.Platform, pt.Ranks, pt.DAP)
	c.Name = fmt.Sprintf("search ranks=%d dap=%d fail=%g", pt.Ranks, pt.DAP, pt.FailProb)
	c.Steps = s.Steps
	if pt.FailProb > 0 {
		c.Perturb = &perturb.Spec{FailProb: pt.FailProb, RestartCost: s.RestartCost}
	}
	return c
}

// Run is RunContext without cancellation.
func (s SearchSpec) Run() (Frontier, error) { return s.RunContext(context.Background()) }

// RunContext executes the search and returns its Frontier. Probes resolve
// through the in-memory memo (Cache; nil gives the search a fresh one),
// then the Resolver — store, then analytic estimate, remote dispatch or
// exact simulation per the resolved mode — so repeated runs against a warm
// store probe without simulating, and the Frontier bytes are identical
// either way. Once ctx is done the search stops before its next probe, and
// a probe that was waiting for a compute slot fails with ctx's error.
func (s SearchSpec) RunContext(ctx context.Context) (Frontier, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Frontier{}, err
	}
	r := s.Resolver
	if r == nil {
		r = &Resolver{}
	}
	cache := s.Cache
	if cache == nil {
		cache = sweep.NewCache[cluster.Result]()
	}
	// The driver is sequential, so a plain variable carries each probe's
	// wall-clock latency from Probe to the OnProbe observer.
	var lastDur time.Duration
	o := s.options()
	o.Stop = func() bool { return ctx.Err() != nil }
	o.Probe = func(pt search.Point) (search.Sample, string, error) {
		cell, err := r.lower(s.configFor(pt), s.SimWorkers, nil, s.Mode)
		if err != nil {
			return search.Sample{}, "", err
		}
		t0 := time.Now()
		var src Source
		res, cached := cache.Do(cell.Key, func() cluster.Result {
			var res cluster.Result
			res, src, err = r.Resolve(ctx, cell.Config, cell.Key)
			return res
		})
		lastDur = time.Since(t0)
		if err != nil {
			return search.Sample{}, "", err
		}
		// Probe sources: a stored or memoized answer is a memo hit, and a
		// remote probe ran the exact simulator on a fleet worker.
		source := "exact"
		switch {
		case cached:
			r.memoHit(cell.Label, cell.Key)
			source = "memo-hit"
		case src == FromStore:
			source = "memo-hit"
		case src == FromEstimate:
			source = "analytic"
		}
		return search.Sample{
			Goodput:   res.Goodput,
			MeanStepS: res.MeanStep.Seconds(),
			P99StepS:  res.P99Step.Seconds(),
		}, source, nil
	}
	if s.OnProbe != nil {
		o.OnProbe = func(p search.Probe, src string) { s.OnProbe(p, src, lastDur) }
	}
	return search.Run(o)
}
