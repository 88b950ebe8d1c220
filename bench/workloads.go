package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sweep"
)

// workloadDef is one traffic mix: its fixture, what each job sends, and how its
// outputs are checked. README.md gives the reason each one exists.
type workloadDef struct {
	clients int
	fabric  bool
	// prepare builds the untimed fixture in r.storeDir; nil when the
	// workload starts from an empty store.
	prepare func(r *runner) error
	// input is measured job i; warmup is the job set-up k ends with.
	input  func(r *runner, i int) jobInput
	warmup func(r *runner, k int) jobInput
	// keep is how many of the first jobs keep their rows for check.
	keep int
	// check verifies the jobs' outputs after the window and returns one
	// message per mismatch.
	check func(r *runner, recs []jobRecord) []string
	// sample is the workload's cells the direct-call stage times.
	sample func(r *runner) []scenario.Scenario
}

var (
	daps      = []int{1, 2, 4, 8}
	ablations = scalefold.Ablations
	// coldRanks keeps one exact simulation near 0.1-0.5 s, so a 1-cell job
	// is dominated by the simulator.
	coldRanks    = []int{64, 128, 256}
	exploreRanks = []int{128, 256, 512, 1024}
)

const (
	exploreCells = 64 // cells per explore-analytic job
	replayCells  = 64 // cells per warm-replay job
	// replayPoolSize is 4x the store's default 4096-entry decoded-value
	// cache, so about three lookups in four miss it and read the disk.
	replayPoolSize = 16384
	prepareBatch   = 1024 // scenarios per prepare job
)

var workloads = map[string]*workloadDef{
	"cold-exact": {
		clients: 2,
		input:   coldInput("cold-exact"),
		warmup:  coldWarmup("cold-exact"),
		keep:    4,
		check:   checkExact("cold-exact"),
		sample:  coldSample("cold-exact"),
	},
	"cold-fabric": {
		clients: 2,
		fabric:  true,
		input:   coldInput("cold-fabric"),
		warmup:  coldWarmup("cold-fabric"),
		keep:    4,
		check:   checkExact("cold-fabric"),
		sample:  coldSample("cold-fabric"),
	},
	"warm-replay": {
		clients: 2,
		prepare: prepareReplay,
		input: func(r *runner, i int) jobInput {
			return sweepInput(r.replayCells("replay", i))
		},
		warmup: func(r *runner, k int) jobInput {
			return sweepInput(r.replayCells("replay/warmup", k))
		},
		check:  checkReplay,
		sample: func(r *runner) []scenario.Scenario { return r.replayCells("replay", 0) },
	},
	"explore-analytic": {
		clients: 2,
		input: func(r *runner, i int) jobInput {
			return sweepInput(exploreJob(r.cfg.seed, "explore", i))
		},
		warmup: func(r *runner, k int) jobInput {
			return sweepInput(exploreJob(r.cfg.seed, "explore/warmup", k))
		},
		keep:   1,
		check:  checkExplore,
		sample: func(r *runner) []scenario.Scenario { return exploreJob(r.cfg.seed, "explore", 0) },
	},
	"search-cliff": {
		clients: 1,
		input: func(r *runner, i int) jobInput {
			return searchInput(cliffSearch(r.cfg.seed, "search", i))
		},
		warmup: func(r *runner, k int) jobInput {
			return searchInput(cliffSearch(r.cfg.seed, "search/warmup", k))
		},
		keep:   1,
		check:  checkSearch,
		sample: searchSample,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sweepInput(cells []scenario.Scenario) jobInput {
	return jobInput{sweep: &service.JobSpec{Scenarios: cells}}
}

func searchInput(s service.SearchJobSpec) jobInput { return jobInput{search: &s} }

// src is the deterministic random stream for (seed, stream, i): the same
// seed always generates the same inputs, and streams never overlap.
func src(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, stream)
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()^(uint64(i)*0x9e3779b97f4a7c15)))
}

// stratified is draw i of a stream over vals in which each block of
// len(vals) consecutive draws is a seeded permutation of vals. Any run of
// jobs then holds every value in near-equal shares, so the job mix — and
// with it every metric — barely moves from one seed to the next.
func stratified[T any](seed int64, stream string, vals []T, i int) T {
	perm := src(seed, stream, i/len(vals)).Perm(len(vals))
	return vals[perm[i%len(vals)]]
}

// freshSeed is a scenario seed no other cell of any stream uses, so the cell
// misses every memo and store.
func freshSeed(seed int64, stream string, i int) int64 {
	return src(seed, stream+"/seed", i).Int64()
}

// fig7 is the Figure 7 ScaleFold configuration at one grid point.
func fig7(ranks, dap int, ablation string, seed int64, mode string) scenario.Scenario {
	c := scalefold.Figure7Config("H100", ranks, dap)
	c.Ablation, c.Seed, c.Mode = ablation, seed, mode
	return c.Scenario
}

// coldCell is cell i of an exact stream: ranks in {64,128,256}, DAP in
// {1,2,4,8}, one of the six ablations, a fresh seed.
func coldCell(seed int64, stream string, i int) scenario.Scenario {
	return fig7(stratified(seed, stream+"/ranks", coldRanks, i), stratified(seed, stream+"/dap", daps, i),
		stratified(seed, stream+"/ablate", ablations, i), freshSeed(seed, stream, i), "")
}

func coldInput(stream string) func(*runner, int) jobInput {
	return func(r *runner, i int) jobInput {
		return sweepInput([]scenario.Scenario{coldCell(r.cfg.seed, stream, i)})
	}
}

// coldWarmup lowers every DAP width once at the smallest rank count: one
// census per census option set the window will use.
func coldWarmup(stream string) func(*runner, int) jobInput {
	return func(r *runner, k int) jobInput {
		cells := make([]scenario.Scenario, len(daps))
		for j, dap := range daps {
			cells[j] = fig7(coldRanks[0], dap, "none", freshSeed(r.cfg.seed, stream+"/warmup", k*len(daps)+j), "")
		}
		return sweepInput(cells)
	}
}

func coldSample(stream string) func(*runner) []scenario.Scenario {
	return func(r *runner) []scenario.Scenario {
		cells := make([]scenario.Scenario, 8)
		for i := range cells {
			cells[i] = coldCell(r.cfg.seed, stream, i)
		}
		return cells
	}
}

// exploreJob is job i of an analytic stream: 64 fresh-seed cells at ranks in
// {128,256,512,1024}. A fresh seed misses the estimator's prep-stream memo,
// as the per-cell seeds of real sweeps do.
func exploreJob(seed int64, stream string, i int) []scenario.Scenario {
	cells := make([]scenario.Scenario, exploreCells)
	for j := range cells {
		c := i*exploreCells + j
		cells[j] = fig7(stratified(seed, stream+"/ranks", exploreRanks, c), stratified(seed, stream+"/dap", daps, c),
			stratified(seed, stream+"/ablate", ablations, c), freshSeed(seed, stream, c), scenario.ModeAnalytic)
	}
	return cells
}

// cliffSearch is search job i: the 128-rank DAP-8 goodput-cliff search in
// auto mode, with its own restart cost so its probes miss the store.
func cliffSearch(seed int64, stream string, i int) service.SearchJobSpec {
	return service.SearchJobSpec{
		Ranks: []int{128}, DAPs: []int{8}, Steps: 8, Budget: 12, Mode: scenario.ModeAuto,
		RestartCost: 30 + 60*src(seed, stream+"/restart", i).Float64(),
	}
}

// searchSample is the first search's probe geometry at a few failure rates.
func searchSample(r *runner) []scenario.Scenario {
	s := cliffSearch(r.cfg.seed, "search", 0)
	var cells []scenario.Scenario
	for _, p := range []float64{0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2} {
		c := scalefold.Figure7Config("H100", s.Ranks[0], s.DAPs[0])
		c.Steps = s.Steps
		if p > 0 {
			c.Perturb = &perturb.Spec{FailProb: p, RestartCost: s.RestartCost}
		}
		cells = append(cells, c.Scenario)
	}
	return cells
}

// replayPool is the warm-replay fixture: n analytic cells over a pool of 16
// seeds, every DAP width and ablation, and ranks in steps of 8, so every
// key is distinct.
func replayPool(seed int64, n int) []scenario.Scenario {
	rng := src(seed, "replay/seeds", 0)
	seeds := make([]int64, 16)
	for k := range seeds {
		seeds[k] = rng.Int64()
	}
	pool := make([]scenario.Scenario, n)
	for c := range pool {
		s, ab := seeds[c%16], ablations[(c/16)%len(ablations)]
		dap, ranks := daps[(c/(16*len(ablations)))%len(daps)], 8*(1+c/(16*len(ablations)*len(daps)))
		pool[c] = fig7(ranks, dap, ab, s, scenario.ModeAnalytic)
	}
	return pool
}

// replayPicks is job i's draw: replayCells distinct pool indices (Floyd's
// algorithm), so no cell repeats within a job and none is a memo hit.
func (r *runner) replayPicks(stream string, i int) []int {
	rng := src(r.cfg.seed, stream, i)
	n, m := min(replayCells, len(r.pool)), len(r.pool)
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for j := m - n; j < m; j++ {
		t := rng.IntN(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

func (r *runner) replayCells(stream string, i int) []scenario.Scenario {
	picks := r.replayPicks(stream, i)
	cells := make([]scenario.Scenario, len(picks))
	for j, p := range picks {
		cells[j] = r.pool[p]
	}
	return cells
}

// prepareReplay writes the pool through the service into the store
// directory and records the hash of the row each cell streamed. The server
// is closed afterwards; set-up reopens the directory.
func prepareReplay(r *runner) error {
	n := replayPoolSize
	if r.cfg.small {
		n = prepareBatch
	}
	r.pool = replayPool(r.cfg.seed, n)
	r.expected = make([]uint64, n)
	s, err := startServer(r.storeDir, false)
	if err != nil {
		return err
	}
	c := newClient(s.url)
	for off := 0; off < n && err == nil; off += prepareBatch {
		rec := jobRecord{index: -1}
		if err = r.send(c, sweepInput(r.pool[off:min(off+prepareBatch, n)]), &rec); err == nil {
			copy(r.expected[off:], rec.hashes)
		}
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// tableHeader is the canonical result-table header every row is keyed by.
var tableHeader = scalefold.SweepTable(nil).Header

// rowHash hashes a streamed row's data in header order; two rows hash
// equal when their data is byte-identical.
func rowHash(data map[string]string) uint64 {
	h := fnv.New64a()
	for _, k := range tableHeader {
		io.WriteString(h, k)
		h.Write([]byte{0})
		io.WriteString(h, data[k])
		h.Write([]byte{0})
	}
	io.WriteString(h, strconv.Itoa(len(data)))
	return h.Sum64()
}

// tableRow formats a result the way the service streams the scenario's row.
func tableRow(sc scenario.Scenario, res cluster.Result) (map[string]string, error) {
	n, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	p := sweep.Point{Coords: []sweep.Coord{
		{Axis: "arch", Value: n.Platform},
		{Axis: "ranks", Value: strconv.Itoa(n.Ranks)},
		{Axis: "dap", Value: strconv.Itoa(n.DAP)},
		{Axis: "ablate", Value: n.Ablation},
		{Axis: "seed", Value: strconv.FormatInt(n.Seed, 10)},
	}}
	tab := scalefold.SweepTable([]scalefold.SweepRow{{Point: p, Res: res}})
	row := make(map[string]string, len(tab.Header))
	for k, h := range tab.Header {
		row[h] = tab.Rows[0][k]
	}
	return row, nil
}

// sampled returns the records of jobs 0..n-1 (recs holds the completed
// jobs), reporting each one missing.
func sampled(recs []jobRecord, n int) ([]jobRecord, []string) {
	out := make([]jobRecord, 0, n)
	for _, rec := range recs {
		if rec.index < n {
			out = append(out, rec)
		}
	}
	var fails []string
	if len(out) < n {
		fails = append(fails, fmt.Sprintf("%d of the %d sampled jobs did not complete", n-len(out), n))
	}
	return out, fails
}

// checkExact re-resolves the first jobs' cells in-process through the same
// store-less path a fabric worker runs, and compares each with its streamed
// row.
func checkExact(stream string) func(*runner, []jobRecord) []string {
	return func(r *runner, recs []jobRecord) []string {
		sample, fails := sampled(recs, r.w.keep)
		for _, rec := range sample {
			sc := coldCell(r.cfg.seed, stream, rec.index)
			res := scalefold.StepConfig{Scenario: sc}.RunVia(nil, nil, nil)
			fails = append(fails, compareRows(rec, []scenario.Scenario{sc}, []cluster.Result{res})...)
		}
		return fails
	}
}

// checkExplore compares the first job's first 8 cells with a direct
// analytic.Estimate.
func checkExplore(r *runner, recs []jobRecord) []string {
	sample, fails := sampled(recs, 1)
	if len(sample) == 0 {
		return fails
	}
	cells := exploreJob(r.cfg.seed, "explore", 0)[:8]
	results := make([]cluster.Result, len(cells))
	for j, sc := range cells {
		res, _, err := analytic.Estimate(sc)
		if err != nil {
			return append(fails, fmt.Sprintf("estimate cell %d: %v", j, err))
		}
		results[j] = res
	}
	return append(fails, compareRows(sample[0], cells, results)...)
}

// compareRows checks that the job streamed, for each of the first
// len(cells) rows, exactly the row res formats to.
func compareRows(rec jobRecord, cells []scenario.Scenario, res []cluster.Result) []string {
	var fails []string
	seen := 0
	for _, ev := range rec.rows {
		if ev.Index >= len(cells) {
			continue
		}
		seen++
		want, err := tableRow(cells[ev.Index], res[ev.Index])
		if err != nil {
			fails = append(fails, err.Error())
		} else if !maps.Equal(want, ev.Data) {
			fails = append(fails, fmt.Sprintf("job %d row %d: streamed %v, direct %v", rec.index, ev.Index, ev.Data, want))
		}
	}
	if seen != len(cells) {
		fails = append(fails, fmt.Sprintf("job %d: %d of %d sampled rows streamed", rec.index, seen, len(cells)))
	}
	return fails
}

// checkReplay compares every replayed row with the row the same cell
// streamed during prepare.
func checkReplay(r *runner, recs []jobRecord) []string {
	var fails []string
	for _, rec := range recs {
		for j, p := range r.replayPicks("replay", rec.index) {
			if rec.hashes[j] != r.expected[p] {
				fails = append(fails, fmt.Sprintf("job %d row %d (pool cell %d): data differs from prepare", rec.index, j, p))
			}
		}
	}
	return fails
}

// checkSearch re-runs the first search in-process and compares its Frontier
// JSON with the streamed frontier event.
func checkSearch(r *runner, recs []jobRecord) []string {
	sample, fails := sampled(recs, 1)
	if len(sample) == 0 {
		return fails
	}
	js := cliffSearch(r.cfg.seed, "search", 0)
	f, err := scalefold.SearchSpec{
		Platform: js.Arch, Ranks: js.Ranks, DAPs: js.DAPs, RestartCost: js.RestartCost,
		Budget: js.Budget, Steps: js.Steps, Mode: js.Mode, SimWorkers: runtime.GOMAXPROCS(0),
		Cache: sweep.NewCache[cluster.Result](),
	}.Run()
	if err != nil {
		return append(fails, fmt.Sprintf("direct search: %v", err))
	}
	if sample[0].frontier == nil {
		return append(fails, "search job 0 streamed no frontier")
	}
	want, err := json.Marshal(f)
	if err != nil {
		return append(fails, err.Error())
	}
	got, err := json.Marshal(*sample[0].frontier)
	if err != nil {
		return append(fails, err.Error())
	}
	if string(got) != string(want) {
		fails = append(fails, fmt.Sprintf("search job 0 frontier %s, direct %s", got, want))
	}
	return fails
}
