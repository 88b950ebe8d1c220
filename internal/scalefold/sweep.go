package scalefold

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// SweepSpec declares a scenario sweep over the simulator: either a
// full-factorial grid of platform × rank count × DAP width × ablation switch
// × seed replica, lowered to canonical Scenarios, or an explicit Scenario
// list. Both run as StepConfig cells on the sweep engine. The `scalefold
// sweep` subcommand is a flag-parsing shim over this type, and its JSON form
// is the sweep job of POST /v1/jobs (service.JobSpec): the JSON fields below,
// strict-decoded, with unset axes filled by WithDefaults, so `{}` submits the
// default 24-cell exploration grid. The execution hooks (Cache, Resolver,
// OnRow) never travel: the server sets its own.
type SweepSpec struct {
	// Profile picks the base configuration each grid cell starts from:
	// "scalefold" (Figure 7 optimized config, default), "baseline"
	// (unoptimized OpenFold reference) or "fastfold".
	Profile string `json:"profile,omitempty"`
	// Arches are platform names from the scenario registry ("H100",
	// "h100-eos", "a100-selene", ...). Grid cells derive their seeds from
	// the axis values as spelled (pre-scenario-layer compatible), so one
	// grid should spell each platform one way; explicit Scenarios are the
	// spelling-independent route.
	Arches []string `json:"arch,omitempty"`
	Ranks  []int    `json:"ranks,omitempty"`
	DAPs   []int    `json:"dap,omitempty"`
	// Ablations are StepConfig.Ablation values ("none" plus the Figure 3
	// barrier switches); see the Ablations variable.
	Ablations []string `json:"ablate,omitempty"`
	// Seeds is the number of seed replicas per scenario (axis "seed" with
	// values 1..Seeds). Each cell derives its RNG seed deterministically
	// from the replica index and the scenario fingerprint.
	Seeds int `json:"seeds,omitempty"`
	// Steps overrides the per-simulation step count (0 = simulator default).
	Steps int `json:"steps,omitempty"`
	// Workers bounds the worker pool (<= 0: GOMAXPROCS). The sweep service
	// also bounds total in-flight simulations across all jobs with its
	// shared pool, so on a job this can only narrow the server limit.
	Workers int `json:"workers,omitempty"`
	// SimWorkers shards each simulation's internal per-rank work across
	// goroutines (<= 1: serial; see cluster.Options.SimWorkers). Execution
	// detail only — results and fingerprints are identical for every value.
	// Applied to every grid cell, and to explicit Scenarios that don't set
	// their own. Prefer Workers (cell parallelism) for many-cell sweeps;
	// SimWorkers pays off when a few huge-rank cells dominate. The sweep
	// service clamps it so cell parallelism × intra-cell shards never
	// exceeds its pool.
	SimWorkers int `json:"sim_workers,omitempty"`
	// Perturb, when non-nil and non-trivial, injects unhealthy-cluster
	// noise (stragglers, transient stalls, failures + restarts; see
	// package perturb) into every grid cell, and into explicit Scenarios
	// that don't carry their own block. Unlike SimWorkers this IS
	// identity-bearing: perturbed cells fingerprint under the v4 key
	// generation and never share store records with healthy ones.
	Perturb *perturb.Spec `json:"perturb,omitempty"`
	// Mode selects how cells resolve their Result: "" or "exact" runs the
	// simulator (the default), "analytic" serves package analytic's
	// closed-form estimate, "auto" picks per cell — analytic unless the
	// estimate's error bounds straddle a decision boundary
	// (analytic.ShouldEscalate), in which case the cell escalates to
	// exact. Applied to every grid cell and to explicit Scenarios that
	// don't carry their own mode. Auto resolves at lowering time (the
	// estimator costs microseconds), so the resolved cells carry plain
	// analytic or exact fingerprints: an auto sweep shares memo entries
	// and store records with explicitly-moded sweeps, and its escalation
	// set is a deterministic function of the scenarios alone. Identity-
	// bearing for analytic cells (v5 keys — an estimate must never satisfy
	// an exact lookup); exact cells keep their v3/v4 keys byte-identical.
	Mode string `json:"mode,omitempty"`
	// Scenarios, when non-empty, replaces the grid axes above: each entry
	// is one explicit cell in the canonical Scenario JSON schema, validated
	// by scenario.Validate at spec validation time (an infeasible explicit
	// scenario is an error, not a skipped row — the submitter named it
	// deliberately). Identity fields (Steps included) come entirely from
	// each scenario, so its fingerprint is a function of the descriptor
	// alone; only the execution knobs (Workers, SimWorkers, Cache,
	// Resolver, ...) still apply.
	Scenarios []scenario.Scenario `json:"scenarios,omitempty"`
	// Cache memoizes results by fingerprint. nil gives this run a fresh
	// memo; pass one to share settled cells across runs (cells shared with
	// other runs otherwise come from the Resolver's store).
	Cache *sweep.Cache[cluster.Result] `json:"-"`
	// Resolver turns each cell the memo cannot settle into a Result, and
	// holds the store, counters, tracer, compute slots and remote
	// dispatcher those resolutions use. nil resolves locally with none of
	// them.
	Resolver *Resolver `json:"-"`
	// OnRow, when non-nil, streams rows as they settle: every skipped row
	// first (in grid order, before execution starts), then each executed
	// row as its cell completes (completion order; calls are serialized).
	// No row streams once a cell has failed. The sweep service's NDJSON
	// endpoint hangs off this hook.
	OnRow func(i int, row SweepRow) `json:"-"`
}

// DefaultSweepSpec is the out-of-the-box exploration grid: the optimized
// ScaleFold profile on H100×256 across every DAP width and every barrier
// ablation — 24 cells the paper never plotted side by side.
func DefaultSweepSpec() SweepSpec {
	return SweepSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{256},
		DAPs:      []int{1, 2, 4, 8},
		Ablations: append([]string(nil), Ablations...),
		Seeds:     1,
	}
}

// WithDefaults fills unset grid fields from DefaultSweepSpec (the service's
// `{}`-submits-the-default contract, like SearchSpec.WithDefaults). An
// explicit-scenario spec passes through untouched: its cells are fully
// specified.
func (s SweepSpec) WithDefaults() SweepSpec {
	if len(s.Scenarios) > 0 {
		return s
	}
	d := DefaultSweepSpec()
	if s.Profile == "" {
		s.Profile = d.Profile
	}
	if len(s.Arches) == 0 {
		s.Arches = d.Arches
	}
	if len(s.Ranks) == 0 {
		s.Ranks = d.Ranks
	}
	if len(s.DAPs) == 0 {
		s.DAPs = d.DAPs
	}
	if len(s.Ablations) == 0 {
		s.Ablations = d.Ablations
	}
	if s.Seeds == 0 {
		s.Seeds = d.Seeds
	}
	return s
}

// Grid returns the declared axes. Expansion is exhaustive — infeasible
// cells (ranks not divisible by DAP) are skipped at lowering time with a
// note in the row set, not silently dropped from the grid.
func (s SweepSpec) Grid() sweep.Grid {
	ints := func(vs []int) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = strconv.Itoa(v)
		}
		return out
	}
	nSeeds := s.Seeds
	if nSeeds < 0 {
		nSeeds = 0 // expansion then fails with `axis "seed" has no values`
	}
	seeds := make([]string, nSeeds)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	return sweep.Grid{Axes: []sweep.Axis{
		{Name: "arch", Values: s.Arches},
		{Name: "ranks", Values: ints(s.Ranks)},
		{Name: "dap", Values: ints(s.DAPs)},
		{Name: "ablate", Values: s.Ablations},
		{Name: "seed", Values: seeds},
	}}
}

// cellFor builds one grid point's configuration and lowers it through r.
// The reported error marks infeasible cells (rank/DAP mismatch).
func (s SweepSpec) cellFor(r *Resolver, p sweep.Point) (sweep.Cell[StepConfig], error) {
	platform := p.Get("arch")
	if _, err := scenario.PlatformByName(platform); err != nil {
		return sweep.Cell[StepConfig]{}, err
	}
	ranks, _ := strconv.Atoi(p.Get("ranks"))
	dap, _ := strconv.Atoi(p.Get("dap"))
	seedIdx, _ := strconv.Atoi(p.Get("seed"))
	ablate := p.Get("ablate")
	if !scenario.ValidAblation(ablate) {
		return sweep.Cell[StepConfig]{}, fmt.Errorf("unknown ablation %q (want one of %v)", ablate, Ablations)
	}
	if ranks < 1 || dap < 1 || ranks%dap != 0 {
		return sweep.Cell[StepConfig]{}, fmt.Errorf("infeasible cell: %d ranks cannot host DAP-%d", ranks, dap)
	}
	var c StepConfig
	switch s.Profile {
	case "", "scalefold":
		c = Figure7Config(platform, ranks, dap)
	case "baseline":
		c = ReferenceConfig(platform, ranks)
		c.DAP = dap
		c.Census.DAP = dap
	case "fastfold":
		c = FastFoldConfig(platform, ranks, dap)
	default:
		return sweep.Cell[StepConfig]{}, fmt.Errorf("unknown profile %q (want scalefold, baseline or fastfold)", s.Profile)
	}
	c.Name = p.Fingerprint()
	c.Ablation = ablate
	c.Steps = s.Steps
	c.Seed = sweep.SeedFor(int64(seedIdx), c.Name)
	return r.lower(c, s.SimWorkers, s.Perturb, s.Mode)
}

// scenarioPoint synthesizes the canonical axis coordinates of an explicit
// scenario, so explicit-scenario rows land in the same result table (and
// NDJSON row format) as grid rows.
func scenarioPoint(sc scenario.Scenario) sweep.Point {
	return sweep.Point{Coords: []sweep.Coord{
		{Axis: "arch", Value: sc.Platform},
		{Axis: "ranks", Value: strconv.Itoa(sc.Ranks)},
		{Axis: "dap", Value: strconv.Itoa(sc.DAP)},
		{Axis: "ablate", Value: sc.Ablation},
		{Axis: "seed", Value: strconv.FormatInt(sc.Seed, 10)},
	}}
}

// SweepRow is one executed (or skipped) sweep cell.
type SweepRow struct {
	Point  sweep.Point
	Config StepConfig
	Res    cluster.Result
	// SkipReason is non-empty for infeasible cells, which carry no result.
	SkipReason string
}

// maxGridCells bounds a grid spec's size: far beyond any sweep worth
// running, far below what expanding it would exhaust.
const maxGridCells = 1 << 20

// validate rejects spec-wide mistakes — an unknown profile, platform or
// ablation fails every cell identically, so it is an error, not a grid of
// skips. Per-cell infeasibility (ranks not divisible by DAP) stays a skip on
// the grid path; an explicit scenario is validated in full, infeasibility
// included, because its submitter named it deliberately.
func (s SweepSpec) validate() error {
	if s.SimWorkers < 0 {
		// An execution knob, but a negative value would fail every cell
		// identically at scenario validation — reject the spec up front.
		return fmt.Errorf("sweep: sim-workers must be >= 0, got %d", s.SimWorkers)
	}
	if s.Perturb != nil {
		// A bad perturbation spec fails every cell identically too.
		if err := s.Perturb.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if !scenario.ValidMode(s.Mode) {
		// So is an unknown mode.
		return fmt.Errorf("sweep: unknown mode %q (want one of %v)", s.Mode, scenario.Modes)
	}
	if len(s.Scenarios) > 0 {
		for i, sc := range s.Scenarios {
			if err := sc.Validate(); err != nil {
				return fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
			}
		}
		return nil
	}
	switch s.Profile {
	case "", "scalefold", "baseline", "fastfold":
	default:
		return fmt.Errorf("sweep: unknown profile %q (want scalefold, baseline or fastfold)", s.Profile)
	}
	// The grid's size is the product of its axis lengths. Bound it before
	// anything expands an axis, so a few bytes of spec cannot ask for
	// billions of cells.
	cells := max(s.Seeds, 0)
	for _, n := range []int{len(s.Arches), len(s.Ranks), len(s.DAPs), len(s.Ablations)} {
		if n > 0 && cells > maxGridCells/n {
			return fmt.Errorf("sweep: grid exceeds %d cells", maxGridCells)
		}
		cells *= n
	}
	for _, a := range s.Arches {
		if _, err := scenario.PlatformByName(a); err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
	}
	for _, ab := range s.Ablations {
		if ab == "" || !scenario.ValidAblation(ab) {
			return fmt.Errorf("sweep: unknown ablation %q (want one of %v)", ab, Ablations)
		}
	}
	return nil
}

// Validate rejects spec-wide mistakes without running anything: an unknown
// profile, platform or ablation, an invalid explicit scenario, or a grid
// that cannot expand. The sweep service validates jobs at submission time
// with it.
func (s SweepSpec) Validate() error {
	if err := s.validate(); err != nil {
		return err
	}
	if len(s.Scenarios) > 0 {
		return nil
	}
	return s.Grid().Validate()
}

// Cells returns how many rows the spec expands to: the explicit scenario
// count, or the full grid size.
func (s SweepSpec) Cells() int {
	if len(s.Scenarios) > 0 {
		return len(s.Scenarios)
	}
	return s.Grid().Size()
}

// Run lowers the spec to cells — one per explicit scenario, or one per grid
// point — resolves the feasible ones on the engine and returns one row per
// cell, in declaration order. onProgress (optional) streams completion
// events. Once ctx is done, cells not yet started fail fast; Run returns the
// first cell error after the engine drains, with the failed rows carrying
// zero Results.
func (s SweepSpec) Run(ctx context.Context, onProgress func(sweep.Progress)) ([]SweepRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	r := s.Resolver
	if r == nil {
		r = &Resolver{}
	}
	var rows []SweepRow
	var cells []sweep.Cell[StepConfig]
	var cellRow []int // cells[i] fills rows[cellRow[i]]
	if len(s.Scenarios) > 0 {
		rows = make([]SweepRow, len(s.Scenarios))
		for i, sc := range s.Scenarios {
			cell, err := r.lower(StepConfig{Scenario: sc}, s.SimWorkers, s.Perturb, s.Mode)
			if err != nil {
				return nil, fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
			}
			// Name the cell by its normalized coordinates, as a grid cell.
			rows[i].Point = scenarioPoint(cell.Config.Scenario)
			cell.Label = rows[i].Point.Fingerprint()
			cell.Config.Name = cell.Label
			rows[i].Config = cell.Config
			cells = append(cells, cell)
			cellRow = append(cellRow, i)
		}
	} else {
		points, err := s.Grid().Expand()
		if err != nil {
			return nil, err
		}
		rows = make([]SweepRow, len(points))
		for i, p := range points {
			rows[i].Point = p
			cell, err := s.cellFor(r, p)
			if err != nil {
				rows[i].SkipReason = err.Error()
				continue
			}
			rows[i].Config = cell.Config
			cells = append(cells, cell)
			cellRow = append(cellRow, i)
		}
	}
	if s.OnRow != nil {
		for i := range rows {
			if rows[i].SkipReason != "" {
				s.OnRow(i, rows[i])
			}
		}
	}
	var errMu sync.Mutex
	var firstErr error
	run := func(cell sweep.Cell[StepConfig]) cluster.Result {
		res, _, err := r.Resolve(ctx, cell.Config, cell.Key)
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		return res
	}
	cache := s.Cache
	if cache == nil {
		cache = sweep.NewCache[cluster.Result]()
	}
	eng := sweep.Engine[StepConfig, cluster.Result]{
		Workers:    s.Workers,
		Cache:      cache,
		OnProgress: onProgress,
		OnResult: func(ci int, res cluster.Result, cached bool) {
			if cached {
				r.memoHit(cells[ci].Label, cells[ci].Key)
			}
			errMu.Lock()
			failed := firstErr != nil
			errMu.Unlock()
			if s.OnRow != nil && !failed {
				ri := cellRow[ci]
				rows[ri].Res = res
				s.OnRow(ri, rows[ri])
			}
		},
	}
	for i, res := range eng.Run(cells, run) {
		rows[cellRow[i]].Res = res
	}
	return rows, firstErr
}

// SweepTable formats executed rows as the canonical result table: the axis
// coordinates followed by step times and the full breakdown, all in seconds
// with fixed precision, so output is byte-identical across worker counts.
// Skipped cells emit their coordinates with a "skipped" status.
func SweepTable(rows []SweepRow) sweep.Table {
	tab := sweep.Table{Header: []string{
		"arch", "ranks", "dap", "ablate", "seed", "status",
		"median_step_s", "mean_step_s", "gpu_compute_s", "cpu_exposed_s",
		"data_wait_s", "comm_xfer_s", "comm_wait_s",
	}}
	sec := func(d interface{ Seconds() float64 }) string {
		return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
	}
	for _, r := range rows {
		p := r.Point
		if r.SkipReason != "" {
			tab.Append(p.Get("arch"), p.Get("ranks"), p.Get("dap"), p.Get("ablate"), p.Get("seed"),
				"skipped", "", "", "", "", "", "", "")
			continue
		}
		tab.Append(p.Get("arch"), p.Get("ranks"), p.Get("dap"), p.Get("ablate"), p.Get("seed"),
			"ok", sec(r.Res.MedianStep), sec(r.Res.MeanStep),
			sec(r.Res.Break.GPUCompute), sec(r.Res.Break.CPUExposed),
			sec(r.Res.Break.DataWait), sec(r.Res.Break.CommXfer), sec(r.Res.Break.CommWait))
	}
	return tab
}
