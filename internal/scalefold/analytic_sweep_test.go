package scalefold

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestAnalyticWithinBoundsOnDefaultGrid is the fidelity property test of the
// analytic fast path: across the default 24-cell exploration grid and its
// perturbed variants, every closed-form estimate lands the exact simulator's
// Result inside the estimate's own stated Bounds. -short trims the grid to
// one DAP column and one perturbed variant.
func TestAnalyticWithinBoundsOnDefaultGrid(t *testing.T) {
	variants := map[string]*perturb.Spec{
		"healthy": nil,
		"failing": {FailProb: 1e-3, RestartCost: 60},
		"noisy":   {SlowdownProb: 0.02, SlowdownFactor: 1.5, StallRate: 0.05, StallMean: 2, FailProb: 1e-4, RestartCost: 90},
	}
	if testing.Short() {
		delete(variants, "noisy")
	}
	for name, p := range variants {
		p := p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := DefaultSweepSpec()
			if testing.Short() {
				spec.DAPs = []int{2}
			}
			spec.Perturb = p
			spec.Cache = sweep.NewCache[cluster.Result]()
			rows, err := spec.Run(t.Context(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.SkipReason != "" {
					t.Fatalf("default grid must have no infeasible cells, got %q", r.SkipReason)
				}
				_, bounds, err := analytic.Estimate(r.Config.Scenario)
				if err != nil {
					t.Fatalf("%s: Estimate: %v", r.Point.Fingerprint(), err)
				}
				if err := bounds.Check(r.Res); err != nil {
					t.Errorf("%s: %v", r.Point.Fingerprint(), err)
				}
			}
		})
	}
}

// TestSweepModeAnalyticKeysAndMetrics pins the analytic execution path end to
// end: estimates persist under v5 store keys, count as Analytic (never as
// simulator runs), round-trip through the store on the next sweep, and the
// exact twin of the same grid keeps its v3 keys — the two generations never
// share a record.
func TestSweepModeAnalyticKeysAndMetrics(t *testing.T) {
	spec := DefaultSweepSpec()
	spec.Ranks = []int{32}
	spec.DAPs = []int{1, 2}
	spec.Ablations = []string{"none", "zero-comm"}
	spec.Steps = 2
	spec.Mode = scenario.ModeAnalytic

	st := store.NewMem[cluster.Result]()
	var met SweepMetrics
	spec.Cache = sweep.NewCache[cluster.Result]()
	spec.Resolver = &Resolver{Store: st, Metrics: &met}

	rows, err := spec.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Simulated.Load(); got != 0 {
		t.Errorf("analytic sweep ran the exact simulator %d times", got)
	}
	if got := met.Analytic.Load(); got != int64(len(rows)) {
		t.Errorf("Analytic = %d, want %d", got, len(rows))
	}
	for _, k := range st.Keys() {
		if !strings.HasPrefix(k, "v5:") {
			t.Errorf("analytic cell stored under non-v5 key %s", k)
		}
	}
	for _, r := range rows {
		if r.Config.Mode != scenario.ModeAnalytic {
			t.Errorf("row %s lost its mode: %q", r.Point.Fingerprint(), r.Config.Mode)
		}
		if r.Res.Goodput <= 0 {
			t.Errorf("row %s carries no result", r.Point.Fingerprint())
		}
	}

	// Second sweep, cold memo, same store: every cell is a store hit and the
	// table is byte-identical.
	var met2 SweepMetrics
	spec.Cache = sweep.NewCache[cluster.Result]()
	spec.Resolver = &Resolver{Store: st, Metrics: &met2}
	rows2, err := spec.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := met2.StoreHits.Load(); got != int64(len(rows)) {
		t.Errorf("second run StoreHits = %d, want %d", got, len(rows))
	}
	if met2.Analytic.Load() != 0 {
		t.Errorf("second run re-estimated %d cells", met2.Analytic.Load())
	}
	var b1, b2 strings.Builder
	SweepTable(rows).WriteCSV(&b1)
	SweepTable(rows2).WriteCSV(&b2)
	if b1.String() != b2.String() {
		t.Error("analytic rows are not byte-identical across store round-trip")
	}

	// The exact twin of the same grid keys under v3 — no key overlap.
	exact := spec
	exact.Mode = ""
	exact.Cache = sweep.NewCache[cluster.Result]()
	exactStore := store.NewMem[cluster.Result]()
	exact.Resolver = &Resolver{Store: exactStore}
	if _, err := exact.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range exactStore.Keys() {
		if !strings.HasPrefix(k, "v3:") {
			t.Errorf("exact cell stored under non-v3 key %s", k)
		}
	}
}

// TestSweepModeValidation pins spec-level mode validation: an unknown mode
// fails the whole spec (CLI exit 2, HTTP 400), listing the valid set.
func TestSweepModeValidation(t *testing.T) {
	spec := DefaultSweepSpec()
	spec.Mode = "psychic"
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted an unknown mode")
	}
	for _, want := range scenario.Modes {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mode error %q does not list %q", err, want)
		}
	}
}

// TestSweepModePrecedence pins the layering rule: a scenario's own mode wins
// over the spec's; the spec's mode fills scenarios without one (an explicit
// "exact" folds to the zero value at normalization, like a no-op perturb
// block, and then takes the spec default).
func TestSweepModePrecedence(t *testing.T) {
	base := Figure7Config("H100", 32, 2).Scenario
	base.Steps = 2
	withMode := func(m string) scenario.Scenario {
		s := base
		s.Mode = m
		return s
	}
	spec := SweepSpec{
		Scenarios: []scenario.Scenario{withMode(scenario.ModeAnalytic), base},
		Mode:      scenario.ModeAnalytic,
		Cache:     sweep.NewCache[cluster.Result](),
	}
	rows, err := spec.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Config.Mode != scenario.ModeAnalytic {
			t.Errorf("rows[%d] mode = %q, want analytic", i, r.Config.Mode)
		}
		if !strings.HasPrefix(r.Config.Fingerprint(), "v5:") {
			t.Errorf("rows[%d] key %s is not v5", i, r.Config.Fingerprint())
		}
	}
	// An explicitly exact scenario under an exact spec stays exact — and its
	// fingerprint is byte-identical to the unmoded spelling (v3).
	spec2 := SweepSpec{
		Scenarios: []scenario.Scenario{withMode(scenario.ModeExact)},
		Cache:     sweep.NewCache[cluster.Result](),
	}
	rows2, err := spec2.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp := rows2[0].Config.Fingerprint(); !strings.HasPrefix(fp, "v3:") {
		t.Errorf("explicit exact scenario keyed %s, want v3", fp)
	}
}

// TestAnalyticCellsNeverDispatch pins the fabric interaction: analytic cells
// resolve on the coordinator, the Runner only ever sees exact cells.
func TestAnalyticCellsNeverDispatch(t *testing.T) {
	spec := DefaultSweepSpec()
	spec.Ranks = []int{32}
	spec.DAPs = []int{1, 2}
	spec.Ablations = []string{"none"}
	spec.Steps = 2
	spec.Mode = scenario.ModeAnalytic
	spec.Cache = sweep.NewCache[cluster.Result]()
	var met SweepMetrics
	spec.Resolver = &Resolver{Metrics: &met, Remote: func(_ context.Context, c StepConfig, key string) (cluster.Result, error) {
		t.Errorf("analytic cell %s dispatched to the fabric", key)
		return cluster.Result{}, nil
	}}
	rows, err := spec.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Analytic.Load(); got != int64(len(rows)) {
		t.Errorf("Analytic = %d, want %d", got, len(rows))
	}
	if met.Remote.Load() != 0 {
		t.Errorf("Remote = %d, want 0", met.Remote.Load())
	}
}

// TestResolverOwnsPrepMemo pins where the estimator's prep memo lives: in
// the Resolver. A zero Resolver lowers and resolves an auto cell (Resolve
// refuses it unlowered); the lowering estimate fills the memo with the
// sampled pseudo-ranks' streams, the analytic resolution reads that entry
// back without adding another, and the Result equals a memo-less
// Estimate's.
func TestResolverOwnsPrepMemo(t *testing.T) {
	c := Figure7Config("H100", 64, 2)
	c.Scenario.Mode = scenario.ModeAuto
	var r Resolver
	cell, err := r.lower(c, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Resolve(t.Context(), c, c.Fingerprint()); err == nil {
		t.Fatal("Resolve accepted an auto-mode cell that was never lowered")
	}
	res, src, err := r.Resolve(t.Context(), cell.Config, cell.Key)
	if err != nil {
		t.Fatal(err)
	}
	if src != FromEstimate {
		t.Fatalf("healthy auto cell resolved from %q, want %q", src, FromEstimate)
	}
	if n := r.prep.Len(); n != 1 {
		t.Errorf("memo holds %d entries after one cell, want 1", n)
	}
	c.Scenario.Mode = scenario.ModeAnalytic
	want, _, err := analytic.Estimate(c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("memoized estimate %+v != memo-less %+v", res, want)
	}
}

// TestAutoEscalationDeterministic pins auto mode's two halves. Resolution:
// across the resilience failure axis the escalation set is non-trivial (some
// cells stay analytic, the bound-straddling ones escalate) and identical on
// every resolution pass — it is a pure function of the scenario. Execution:
// a spec-level auto sweep lands each cell under the key generation its
// resolution picked, with the metrics split to match.
func TestAutoEscalationDeterministic(t *testing.T) {
	rs := DefaultResilienceSpec()
	rs.Ranks = []int{256}
	scs, err := rs.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	var r Resolver
	resolve := func() []string {
		modes := make([]string, len(scs))
		for i, sc := range scs {
			cell, err := r.lower(StepConfig{Scenario: sc}, 0, nil, scenario.ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			modes[i] = cell.Config.Mode
		}
		return modes
	}
	first := resolve()
	var analyticN, exactN int
	for _, m := range first {
		switch m {
		case scenario.ModeAnalytic:
			analyticN++
		case "":
			exactN++
		default:
			t.Fatalf("auto resolved to %q", m)
		}
	}
	if analyticN == 0 || exactN == 0 {
		t.Fatalf("escalation set is trivial: %d analytic, %d exact over %v", analyticN, exactN, rs.FailProbs)
	}
	for pass := 0; pass < 3; pass++ {
		again := resolve()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("pass %d: cell %d resolved %q, first pass said %q", pass, i, again[i], first[i])
			}
		}
	}

	// Execution: run the auto sweep and check the store splits by resolution.
	st := store.NewMem[cluster.Result]()
	var met SweepMetrics
	run := SweepSpec{
		Scenarios: scs,
		Mode:      scenario.ModeAuto,
		Cache:     sweep.NewCache[cluster.Result](),
		Resolver:  &Resolver{Store: st, Metrics: &met},
	}
	if _, err := run.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if got := met.Escalated.Load(); got != int64(exactN) {
		t.Errorf("Escalated = %d, want %d", got, exactN)
	}
	if got := met.Analytic.Load(); got != int64(analyticN) {
		t.Errorf("Analytic = %d, want %d", got, analyticN)
	}
	if got := met.Simulated.Load(); got != int64(exactN) {
		t.Errorf("Simulated = %d, want %d", got, exactN)
	}
	var v5 int
	for _, k := range st.Keys() {
		if strings.HasPrefix(k, "v5:") {
			v5++
		}
	}
	if v5 != analyticN {
		t.Errorf("store holds %d v5 keys, want %d", v5, analyticN)
	}
}
