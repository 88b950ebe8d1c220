package scalefold

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/sweep"
)

// tinySearchSpec is a fast search over small clusters for determinism and
// wiring tests: every probe simulates in milliseconds.
func tinySearchSpec(st store.Store[cluster.Result]) SearchSpec {
	return SearchSpec{
		Objective: "maximize-goodput",
		Platform:  "H100",
		Ranks:     []int{32, 64, 128},
		DAPs:      []int{1, 2, 4},
		FailLo:    1e-4,
		FailHi:    0.5,
		Steps:     2,
		Mode:      "auto",
		Budget:    64,
		Cache:     sweep.NewCache[cluster.Result](),
		Resolver:  &Resolver{Store: st},
	}
}

// TestSearchDeterminismAndMemoization is the core contract: the same spec
// run twice against one store yields a byte-identical Frontier, and the
// second run performs zero new simulations — every probe is a memo hit.
func TestSearchDeterminismAndMemoization(t *testing.T) {
	st := store.NewMem[cluster.Result]()

	run := func() ([]byte, map[string]int, int64) {
		spec := tinySearchSpec(st)
		spec.Cache = sweep.NewCache[cluster.Result]() // cold memo: only the store persists
		spec.Resolver.Metrics = &SweepMetrics{}
		sources := map[string]int{}
		spec.OnProbe = func(p search.Probe, src string, d time.Duration) { sources[src]++ }
		f, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return b, sources, spec.Resolver.Metrics.Simulated.Load()
	}

	b1, src1, _ := run()
	b2, src2, sims2 := run()
	if string(b1) != string(b2) {
		t.Fatalf("frontier bytes differ between runs against one store:\nfirst:  %s\nsecond: %s", b1, b2)
	}
	if sims2 != 0 {
		t.Fatalf("second run simulated %d times; the store must satisfy every probe", sims2)
	}
	if n := src2["memo-hit"]; n == 0 || len(src2) != 1 {
		t.Fatalf("second run sources = %v; want memo-hit only", src2)
	}
	if src1["memo-hit"] == src1["memo-hit"]+src1["exact"]+src1["analytic"] {
		t.Fatalf("first run sources = %v; want at least one cold probe", src1)
	}

	var f Frontier
	if err := json.Unmarshal(b1, &f); err != nil {
		t.Fatal(err)
	}
	if f.Cliff == nil || len(f.Pareto) == 0 || f.Best == nil {
		t.Fatalf("frontier incomplete: %s", b1)
	}
	if f.Used != len(f.Probes) || f.Used > f.Budget {
		t.Fatalf("budget accounting off: used=%d probes=%d budget=%d", f.Used, len(f.Probes), f.Budget)
	}
}

func TestSearchSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SearchSpec)
		want string
	}{
		{"bad objective", func(s *SearchSpec) { s.Objective = "maximize-flops" }, "objective"},
		{"bad mode", func(s *SearchSpec) { s.Mode = "guess" }, "mode"},
		{"bad platform", func(s *SearchSpec) { s.Platform = "TPUv9" }, "platform"},
		{"no feasible dap", func(s *SearchSpec) { s.Ranks = []int{100}; s.DAPs = []int{8} }, "divides"},
		{"inverted fail range", func(s *SearchSpec) { s.FailLo = 0.5; s.FailHi = 1e-4 }, "failure-rate"},
		{"nan tolerance", func(s *SearchSpec) { s.Tolerance = math.NaN() }, "tolerance"},
		{"negative sim workers", func(s *SearchSpec) { s.SimWorkers = -1 }, "sim-workers"},
		{"restart cost over cap", func(s *SearchSpec) { s.RestartCost = 1e9 }, "restart_cost_s"},
	}
	for _, tc := range cases {
		s := DefaultSearchSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v; want error mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := (SearchSpec{}).Validate(); err != nil {
		t.Fatalf("zero spec must validate through defaults: %v", err)
	}
}

// TestSearchProbeKeysMatchSweepCells pins the store-key contract: a probe's
// fingerprint equals the fingerprint an equivalent resilience sweep cell
// carries, so searches and sweeps share memo entries and store records.
func TestSearchProbeKeysMatchSweepCells(t *testing.T) {
	spec := DefaultSearchSpec()
	spec.Mode = "exact"
	cell, err := (&Resolver{}).lower(spec.configFor(search.Point{Ranks: 1024, DAP: 8, FailProb: 1e-4}), spec.SimWorkers, nil, spec.Mode)
	if err != nil {
		t.Fatal(err)
	}
	rs := ResilienceSpec{
		Platform: "H100", Ranks: []int{1024}, DAP: 8,
		FailProbs: []float64{1e-4}, RestartCost: 60, Steps: 24,
	}
	scs, err := rs.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	n, err := scs[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := StepConfig{Scenario: n}.Fingerprint()
	if got := cell.Key; got != want {
		t.Fatalf("probe key %q != equivalent resilience cell key %q", got, want)
	}
}

// TestSearchLocalizesResilienceCliff is the acceptance check for the
// EXPERIMENTS.md goodput cliff: at ranks=1024/DAP-8 with 24-step cells and a
// 60 s restart, the exact grid records goodput 1.000 at p=1e-5 and 0.128 at
// p=1e-4 — the cliff lies between them. The searcher must localize it to
// within the bisection tolerance while escalating at most 25% of the
// simulator probes the equivalent exact grid (one cell per tolerance step
// across the searched span) would spend, and a repeat run must be
// byte-identical with every probe a memo hit.
func TestSearchLocalizesResilienceCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank 24-step probes are seconds each; skipped under -short")
	}
	st := store.NewMem[cluster.Result]()
	spec := func(m *SweepMetrics) SearchSpec {
		return SearchSpec{
			Objective:  "maximize-goodput",
			Platform:   "H100",
			Ranks:      []int{1024},
			DAPs:       []int{8},
			FailLo:     1e-6,
			FailHi:     1e-2,
			Tolerance:  0.1,
			Budget:     24,
			Steps:      24,
			Mode:       "auto",
			SimWorkers: runtime.GOMAXPROCS(0),
			Cache:      sweep.NewCache[cluster.Result](),
			Resolver:   &Resolver{Store: st, Metrics: m},
		}
	}

	var met SweepMetrics
	f, err := spec(&met).Run()
	if err != nil {
		t.Fatal(err)
	}
	exactProbes := met.Simulated.Load()

	c := f.Cliff
	if c == nil || !c.Found {
		t.Fatalf("cliff not found: %+v", c)
	}
	// EXPERIMENTS.md: goodput 1.000 at 1e-5, 0.128 at 1e-4 — the crossing
	// sits strictly inside [1e-5, 1e-4], and bisection of [1e-6, 1e-2]
	// lands its very first midpoints on those grid cells, so the final
	// bracket must lie within them.
	if c.Lo < 1e-5/1.001 || c.Hi > 1e-4*1.001 {
		t.Fatalf("bracket [%g, %g] outside the grid's [1e-5, 1e-4] crossing", c.Lo, c.Hi)
	}
	if w := math.Log10(c.Hi / c.Lo); w > 0.1*1.0001 {
		t.Fatalf("bracket width %.3f decades exceeds the 0.1 tolerance", w)
	}
	// The equivalent exact grid at the same resolution: one cell per
	// tolerance step across the 4-decade span, plus the endpoint.
	gridCells := int(math.Ceil(4/0.1)) + 1
	if max := int64(gridCells / 4); exactProbes > max {
		t.Fatalf("search escalated %d exact simulations; want <= 25%% of the %d-cell grid (%d)",
			exactProbes, gridCells, max)
	}
	t.Logf("cliff [%g, %g] via %d probes (%d exact) vs %d grid cells",
		c.Lo, c.Hi, f.Used, exactProbes, gridCells)

	// Repeat run against the warm store: byte-identical frontier, zero new
	// simulations, every probe a memo hit.
	b1, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{}
	var met2 SweepMetrics
	sp2 := spec(&met2)
	sp2.OnProbe = func(p search.Probe, src string, d time.Duration) { sources[src]++ }
	f2, err := sp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(f2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("repeat frontier differs:\nfirst:  %s\nsecond: %s", b1, b2)
	}
	if d := met2.Simulated.Load(); d != 0 {
		t.Fatalf("repeat run simulated %d times; want 0", d)
	}
	if sources["memo-hit"] != f2.Used || len(sources) != 1 {
		t.Fatalf("repeat run sources = %v; want %d memo hits only", sources, f2.Used)
	}
}
