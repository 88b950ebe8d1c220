package scalefold

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// ResilienceSpec declares the goodput-vs-failure-rate sweep behind the
// `scalefold resilience` subcommand: the optimized Figure 7 configuration
// at each rank count, perturbed with every failure probability on the
// axis, all sharing one restart cost. It answers the scaling question the
// paper's healthy-cluster measurements cannot: how fast does goodput decay
// as the fleet grows and per-rank failures accumulate into whole-job
// restarts?
type ResilienceSpec struct {
	// Platform names the hardware profile ("H100", "a100-selene", ...).
	Platform string
	// Ranks are the cluster sizes to compare; DAP is the (single) DAP
	// width every cell runs at.
	Ranks []int
	DAP   int
	// FailProbs is the failure-rate axis: per-rank per-step fatal-failure
	// probabilities. 0 is the healthy baseline row.
	FailProbs []float64
	// RestartCost is the checkpoint-restart cost in seconds every failure
	// pays (perturb.Spec.RestartCost).
	RestartCost float64
	// Base, when non-nil, supplies the straggler/stall components layered
	// under the failure axis (its FailProb/RestartCost are overridden per
	// cell).
	Base *perturb.Spec
	// Steps overrides the per-simulation step count (0 = default). More
	// steps sharpen the failure-rate resolution: a cell only restarts if
	// some rank fails within the simulated window.
	Steps int
	// Mode selects how cells resolve, as in SweepSpec.Mode: "" or "exact"
	// simulates, "analytic" serves closed-form estimates, "auto" estimates
	// and escalates exactly the cells whose goodput bounds straddle the
	// resilience cliff — the transition region this sweep exists to map.
	Mode string
	// Execution knobs, as in SweepSpec.
	Workers    int
	SimWorkers int
	Cache      *sweep.Cache[cluster.Result]
	Resolver   *Resolver
}

// DefaultResilienceSpec is the out-of-the-box resilience sweep: the paper's
// two flagship fleet sizes at DAP-8 across five failure rates spanning
// "healthy" to "a rank dies most steps", with a one-minute restart.
func DefaultResilienceSpec() ResilienceSpec {
	return ResilienceSpec{
		Platform:    "H100",
		Ranks:       []int{256, 1024},
		DAP:         8,
		FailProbs:   []float64{0, 1e-5, 1e-4, 1e-3, 1e-2},
		RestartCost: 60,
	}
}

// ResilienceRow is one executed cell of the sweep.
type ResilienceRow struct {
	Ranks    int
	FailProb float64
	Config   StepConfig
	Res      cluster.Result
}

// Scenarios lowers the spec to its explicit scenario list, in row order
// (ranks-major, failure rate minor). Every scenario is the optimized
// Figure 7 configuration plus the cell's perturbation; the FailProb = 0
// cells normalize back to healthy v3 scenarios unless Base adds noise.
func (s ResilienceSpec) Scenarios() ([]scenario.Scenario, error) {
	if len(s.Ranks) == 0 || len(s.FailProbs) == 0 {
		return nil, fmt.Errorf("resilience: ranks and fail-rate axes must be non-empty")
	}
	var out []scenario.Scenario
	for _, ranks := range s.Ranks {
		for _, fp := range s.FailProbs {
			p := perturb.Spec{}
			if s.Base != nil {
				p = *s.Base
			}
			p.FailProb = fp
			p.RestartCost = s.RestartCost
			cfg := Figure7Config(s.Platform, ranks, s.DAP)
			sc := cfg.Scenario
			sc.Steps = s.Steps
			if !p.IsZero() {
				sc.Perturb = &p
			}
			if err := sc.Validate(); err != nil {
				return nil, fmt.Errorf("resilience: ranks=%d fail_prob=%g: %w", ranks, fp, err)
			}
			out = append(out, sc)
		}
	}
	return out, nil
}

// Run executes the sweep on the engine (explicit-scenario path: every cell
// is fully specified, memoized and store-backed like any other scenario)
// and returns one row per (ranks, fail_prob) cell in declaration order.
func (s ResilienceSpec) Run(ctx context.Context, onProgress func(sweep.Progress)) ([]ResilienceRow, error) {
	scs, err := s.Scenarios()
	if err != nil {
		return nil, err
	}
	sw := SweepSpec{
		Scenarios:  scs,
		Workers:    s.Workers,
		SimWorkers: s.SimWorkers,
		Mode:       s.Mode,
		Cache:      s.Cache,
		Resolver:   s.Resolver,
	}
	sweepRows, err := sw.Run(ctx, onProgress)
	if err != nil {
		return nil, err
	}
	rows := make([]ResilienceRow, len(sweepRows))
	i := 0
	for _, ranks := range s.Ranks {
		for _, fp := range s.FailProbs {
			rows[i] = ResilienceRow{Ranks: ranks, FailProb: fp, Config: sweepRows[i].Config, Res: sweepRows[i].Res}
			i++
		}
	}
	return rows, nil
}

// ResilienceTable formats the rows as the canonical goodput-vs-failure-rate
// table: fixed-precision seconds and shares, so output is byte-identical
// across worker counts and store states.
func ResilienceTable(spec ResilienceSpec, rows []ResilienceRow) sweep.Table {
	tab := sweep.Table{Header: []string{
		"arch", "ranks", "dap", "fail_prob", "restart_cost_s",
		"goodput", "restarts", "stall_share",
		"p50_step_s", "p99_step_s", "mean_step_s",
	}}
	sec := func(d interface{ Seconds() float64 }) string {
		return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
	}
	frac := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, r := range rows {
		restart := 0.0
		if p := r.Config.Perturb; p != nil {
			restart = p.RestartCost
		}
		tab.Append(
			spec.Platform, strconv.Itoa(r.Ranks), strconv.Itoa(spec.DAP),
			strconv.FormatFloat(r.FailProb, 'g', -1, 64),
			strconv.FormatFloat(restart, 'g', -1, 64),
			frac(r.Res.Goodput), strconv.Itoa(r.Res.Restarts), frac(r.Res.StallShare),
			sec(r.Res.MedianStep), sec(r.Res.P99Step), sec(r.Res.MeanStep),
		)
	}
	return tab
}
