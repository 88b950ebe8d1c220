package scalefold

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// testSpec is a small-but-real sweep: 24 cells at tiny rank counts so the
// determinism and memoization properties are checked against the actual
// simulator, not a stub. A nil cache gives each run a fresh memo, forcing
// cold execution.
func testSpec(workers int, cache *sweep.Cache[cluster.Result]) SweepSpec {
	s := DefaultSweepSpec()
	s.Ranks = []int{32}
	s.Steps = 2
	s.Workers = workers
	s.Cache = cache
	return s
}

func sweepCSV(t *testing.T, s SweepSpec) []byte {
	t.Helper()
	rows, err := s.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SweepTable(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSweepGridIs24Cells(t *testing.T) {
	g := testSpec(1, nil).Grid()
	if g.Size() != 24 {
		t.Fatalf("default sweep grid has %d cells, want 24", g.Size())
	}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("expanded to %d points", len(points))
	}
}

func TestSweepWorkerCountDoesNotChangeOutput(t *testing.T) {
	skipIfShort(t)
	serial := sweepCSV(t, testSpec(1, nil))
	parallel := sweepCSV(t, testSpec(8, nil))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-workers=1 and -workers=8 must emit byte-identical CSV:\n%s\nvs\n%s", serial, parallel)
	}
	if n := bytes.Count(serial, []byte("\n")); n != 25 { // header + 24 cells
		t.Fatalf("CSV has %d lines, want 25", n)
	}
	if !bytes.Contains(serial, []byte(",ok,")) {
		t.Fatal("no executed cells in sweep output")
	}
}

// TestSweepSimWorkersDoesNotChangeOutput pins the execution-detail contract
// end to end: sharding each cell's internal per-rank work across goroutines
// must leave the CSV byte-identical — SimWorkers is excluded from the
// fingerprint precisely because it cannot change a row. Kept small (4 cells)
// so it runs under the -race -short CI job, where the sharded march gets its
// data-race audit.
func TestSweepSimWorkersDoesNotChangeOutput(t *testing.T) {
	spec := func(simWorkers int) SweepSpec {
		s := testSpec(2, nil)
		s.Ablations = []string{"none"}
		s.SimWorkers = simWorkers
		return s
	}
	serial := sweepCSV(t, spec(0))
	for _, w := range []int{1, 4, 8} {
		if got := sweepCSV(t, spec(w)); !bytes.Equal(serial, got) {
			t.Fatalf("SimWorkers=%d changed the CSV:\n%s\nvs\n%s", w, serial, got)
		}
	}
}

func TestSweepMemoizationMatchesColdRun(t *testing.T) {
	skipIfShort(t)
	cold := sweepCSV(t, testSpec(4, nil))
	cache := sweep.NewCache[cluster.Result]()
	warm1 := sweepCSV(t, testSpec(4, cache))
	entries := cache.Len()
	warm2 := sweepCSV(t, testSpec(4, cache))
	if !bytes.Equal(cold, warm1) || !bytes.Equal(warm1, warm2) {
		t.Fatal("memoized sweep must emit byte-identical CSV to a cold run")
	}
	if entries != 24 || cache.Len() != 24 {
		t.Fatalf("cache has %d then %d entries, want 24 (every cell distinct, none recomputed)", entries, cache.Len())
	}
}

func TestSweepSkipsInfeasibleCells(t *testing.T) {
	s := testSpec(2, nil)
	s.Ranks = []int{30} // not divisible by DAP 4 or 8
	s.Ablations = []string{"none"}
	rows, err := s.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok, skipped int
	for _, r := range rows {
		if r.SkipReason != "" {
			skipped++
		} else {
			ok++
		}
	}
	if ok != 2 || skipped != 2 { // DAP 1,2 feasible; 4,8 not
		t.Fatalf("ok=%d skipped=%d, want 2/2", ok, skipped)
	}
	var buf bytes.Buffer
	if err := SweepTable(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipped") {
		t.Fatal("skipped cells must appear in the table, not vanish")
	}
}

func TestSweepSeedDerivationDistinctPerReplica(t *testing.T) {
	s := testSpec(1, nil)
	s.DAPs = []int{2}
	s.Ablations = []string{"none"}
	s.Seeds = 3
	rows, err := s.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for _, r := range rows {
		seeds[r.Config.Seed] = true
	}
	if len(seeds) != 3 {
		t.Fatalf("3 seed replicas derived %d distinct seeds", len(seeds))
	}
}

func TestSweepRejectsBadAxes(t *testing.T) {
	// Spec-wide mistakes fail every cell identically, so they are errors —
	// not a grid of skipped rows that exits 0 in a scripted pipeline.
	for _, mut := range []func(*SweepSpec){
		func(s *SweepSpec) { s.Arches = []string{"TPU"} },
		func(s *SweepSpec) { s.Profile = "alphafold3" },
		func(s *SweepSpec) { s.Ablations = []string{"zero-lunch"} },
		func(s *SweepSpec) { s.Seeds = 1 << 60 }, // refused before its seed axis is built
	} {
		s := testSpec(1, nil)
		mut(&s)
		if _, err := s.Run(t.Context(), nil); err == nil {
			t.Fatalf("spec-wide mistake must error, got nil (%+v)", s)
		}
	}
	// Negative seed counts degrade to the empty-axis error, not a panic.
	s := testSpec(1, nil)
	s.Seeds = -1
	if _, err := s.Run(t.Context(), nil); err == nil {
		t.Fatal("negative -seeds must error")
	}
}

func TestFingerprintSeparatesScenarios(t *testing.T) {
	a := Figure7Config("H100", 256, 2)
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs must share a fingerprint")
	}
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Name is display-only and must not change the fingerprint")
	}
	for _, mut := range []func(*StepConfig){
		func(c *StepConfig) { c.Seed = 99 },
		func(c *StepConfig) { c.Ranks = 512 },
		func(c *StepConfig) { c.Census.BF16 = false },
		func(c *StepConfig) { c.Ablation = "zero-comm" },
		func(c *StepConfig) { c.Prefetch = 128 },
		func(c *StepConfig) { c.DisableGC = true },
	} {
		m := a
		mut(&m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Fatalf("mutation must change fingerprint: %+v", m)
		}
	}
}

func TestFingerprintIsVersionedScenarioKey(t *testing.T) {
	c := Figure7Config("H100", 256, 2)
	fp := c.Fingerprint()
	if !scenario.IsCurrentKey(fp) {
		t.Fatalf("StepConfig fingerprint %q must be a current-version scenario key", fp)
	}
	// The wrapper adds nothing to identity: the embedded Scenario IS the key.
	if fp != c.Scenario.Fingerprint() {
		t.Fatal("StepConfig must fingerprint exactly as its Scenario")
	}
	// Platform aliases collapse: "H100" and "h100-eos" are one scenario.
	canon := c
	canon.Platform = "h100-eos"
	if canon.Fingerprint() != fp {
		t.Fatal("platform alias must not change the fingerprint")
	}
}

func TestSweepExplicitScenarios(t *testing.T) {
	sc := Figure7Config("H100", 32, 2).Scenario
	sc.Steps = 2
	ab := sc
	ab.Ablation = "zero-launch"
	s := SweepSpec{Scenarios: []scenario.Scenario{sc, ab}, Workers: 2, Cache: sweep.NewCache[cluster.Result]()}
	if s.Cells() != 2 {
		t.Fatalf("Cells() = %d, want 2", s.Cells())
	}
	rows, err := s.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.SkipReason != "" {
			t.Fatalf("row %d skipped: %s", i, r.SkipReason)
		}
		if r.Res.MedianStep <= 0 {
			t.Fatalf("row %d has no result", i)
		}
	}
	if rows[0].Point.Get("arch") != "h100-eos" || rows[0].Point.Get("dap") != "2" {
		t.Fatalf("explicit scenario row carries wrong coordinates: %+v", rows[0].Point)
	}

	// The explicit cell and the equivalent grid cell share one store key:
	// a grid-warmed store serves the scenario job without simulation.
	grid := testSpec(2, nil)
	grid.Ranks = []int{32}
	grid.DAPs = []int{2}
	grid.Ablations = []string{"none"}
	grid.Steps = 2
	st := store.NewMem[cluster.Result]()
	grid.Resolver = &Resolver{Store: st}
	if _, err := grid.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	gridSeed := sweep.SeedFor(1, "arch=H100,ranks=32,dap=2,ablate=none,seed=1")
	exp := Figure7Config("H100", 32, 2).Scenario
	exp.Steps = 2
	exp.Seed = gridSeed
	expSpec := SweepSpec{
		Scenarios: []scenario.Scenario{exp},
		Cache:     sweep.NewCache[cluster.Result](),
		Resolver:  &Resolver{Store: st, Metrics: &SweepMetrics{}},
	}
	if _, err := expSpec.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if n := expSpec.Resolver.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("explicit scenario equal to a stored grid cell re-simulated %d times", n)
	}
	if n := expSpec.Resolver.Metrics.StoreHits.Load(); n != 1 {
		t.Fatalf("want 1 store hit, got %d", n)
	}
}

func TestSweepRejectsInvalidExplicitScenario(t *testing.T) {
	bad := Figure7Config("H100", 30, 4).Scenario // 30 ranks can't host DAP-4
	s := SweepSpec{Scenarios: []scenario.Scenario{bad}}
	if _, err := s.Run(t.Context(), nil); err == nil {
		t.Fatal("invalid explicit scenario must be an error, not a skipped row")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate must reject invalid explicit scenarios")
	}
}
