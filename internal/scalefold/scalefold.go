// Package scalefold is the public facade of the reproduction: it encodes the
// paper's experiment configurations — which optimizations are active in each
// Figure 7 row, each Figure 8 ladder rung, and each Figure 3 ablation column
// — and runs them on the workload census + cluster simulator. Downstream
// users compose StepConfig values; the cmd/scalefold CLI and bench_test.go
// call the experiment runners here.
//
// Every cell becomes a Result through one Resolver (resolver.go): store hit,
// else analytic estimate, fabric dispatch or exact simulation, written
// through and counted. The experiment runners are thin grid declarations
// over the sweep engine (package sweep) that take a Resolver: cells are
// fingerprinted, run on a bounded worker pool and memoized for the run, and
// a cell shared by several figures — e.g. the A100 reference step —
// simulates once when the figures share the Resolver's store. The package
// keeps no process-wide results: two Resolvers share only what their stores
// share.
package scalefold

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// StepConfig is one training configuration to cost: a canonical
// scenario.Scenario plus a display name. Identity — validation, lowering to
// cluster.Options, the versioned fingerprint that keys the memo and the
// persistent store — lives entirely on the embedded Scenario; this wrapper
// only adds the figure-label conveniences the experiment runners want.
type StepConfig struct {
	Name string
	scenario.Scenario
}

// Ablations lists the recognized ablation values ("none" plus the Figure 3
// barrier switches); it aliases the scenario layer's canonical list.
var Ablations = scenario.Ablations

// RunVia resolves the configuration against st — a store hit, else a
// simulation (or estimate) written through — counting on m: Resolve on a
// one-off Resolver. It panics on a scenario that does not lower, which
// Resolve reports as an error instead.
func (c StepConfig) RunVia(st store.Store[cluster.Result], onErr func(error), m *SweepMetrics) cluster.Result {
	return (&Resolver{Store: st, OnStoreErr: onErr, Metrics: m}).must(c)
}

// Run resolves the configuration once, with no store: one cold simulation
// (or estimate). Callers that resolve many cells share a Resolver instead.
func (c StepConfig) Run() cluster.Result { return c.RunVia(nil, nil, nil) }

// StepSeconds simulates and returns the median step time in seconds — the
// quantity a step-time microbenchmark reports (rare data stalls excluded).
func (c StepConfig) StepSeconds() float64 { return c.Run().MedianStep.Seconds() }

// runConfigs resolves step configurations through r on the sweep engine's
// GOMAXPROCS workers, with a memo that lives for this call: a cell repeated
// within one figure resolves once, and sharing across figures comes from
// r's store. Results come back in input order, so downstream output is
// byte-identical for every worker count.
func runConfigs(r *Resolver, cfgs []StepConfig) []cluster.Result {
	cells := make([]sweep.Cell[StepConfig], len(cfgs))
	for i, c := range cfgs {
		cells[i] = sweep.Cell[StepConfig]{Key: c.Fingerprint(), Label: c.Name, Config: c}
	}
	eng := sweep.Engine[StepConfig, cluster.Result]{Cache: sweep.NewCache[cluster.Result]()}
	return eng.Run(cells, r.must)
}

// platformLabel returns the GPU architecture name of a platform for figure
// labels ("H100" for "h100-eos"), falling back to the raw reference.
func platformLabel(platform string) string {
	if p, err := scenario.PlatformByName(platform); err == nil {
		return p.Arch.Name
	}
	return platform
}

// ReferenceConfig is the unoptimized OpenFold baseline on `ranks` GPUs of
// the named platform ("A100", "h100-eos", ... — see the scenario registry).
func ReferenceConfig(platform string, ranks int) StepConfig {
	return StepConfig{
		Name: "OpenFold reference (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: 1,
			Census: workload.Baseline(),
			Seed:   1,
		},
	}
}

// Figure7Config returns the ScaleFold configuration of a Figure 7 bar: the
// fused-kernel + batched-GEMM + bf16 + non-blocking-dataloader training at
// DAP-n. Per the Figure 8 ordering, torch.compile and GC-disable came later
// than the Figure 7 step-time measurements, and CUDA Graph pays off only for
// DAP >= 2 ("CudaGraph is not beneficial for DAP-1", §4.1), so those are
// excluded/conditional here.
func Figure7Config(platform string, ranks, dapN int) StepConfig {
	cen := workload.Options{
		FusedMHA: true, FusedLN: true, FusedAdamSWA: true,
		BatchedGEMM: true, BF16: true, BucketedClip: true,
		GradCheckpoint: dapN <= 1, // DAP frees memory; ckpt off for DAP>=2
		Recycles:       3,
		DAP:            dapN,
	}
	return StepConfig{
		Name: "ScaleFold (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: dapN,
			Census:      cen,
			CUDAGraph:   dapN > 1,
			NonBlocking: true,
			Seed:        1,
		},
	}
}

// FastFoldConfig approximates FastFold: baseline kernels plus DAP (its DAP
// contribution) with checkpointing still on and the stock dataloader.
func FastFoldConfig(platform string, ranks, dapN int) StepConfig {
	cen := workload.Baseline()
	cen.DAP = dapN
	cen.FusedMHA = true // FastFold ships its own fused attention kernels
	cen.FusedLN = true
	cen.GradCheckpoint = dapN <= 1
	return StepConfig{
		Name: "FastFold (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: dapN,
			Census: cen,
			Seed:   1,
		},
	}
}

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	Label   string
	Paper   float64 // step seconds reported in the paper
	Config  StepConfig
	Seconds float64 // measured by the simulator (filled by Figure7)
}

// figure7Rows declares the Figure 7 comparison grid: one cell per
// (system, arch, ranks, DAP) bar of the paper's plot.
func figure7Rows() []Fig7Row {
	return []Fig7Row{
		{Label: "OpenFold (A100x128, NoDAP)", Paper: 6.19, Config: ReferenceConfig("A100", 128)},
		{Label: "FastFold (A100x256, DAP2)", Paper: 2.49, Config: FastFoldConfig("A100", 256, 2)},
		{Label: "ScaleFold (A100x256, DAP2)", Paper: 1.88, Config: Figure7Config("A100", 256, 2)},
		{Label: "ScaleFold (H100x128, NoDAP)", Paper: 1.80, Config: Figure7Config("H100", 128, 1)},
		{Label: "ScaleFold (H100x256, DAP2)", Paper: 1.12, Config: Figure7Config("H100", 256, 2)},
		{Label: "ScaleFold (H100x512, DAP4)", Paper: 0.75, Config: Figure7Config("H100", 512, 4)},
		{Label: "ScaleFold (H100x1024, DAP8)", Paper: 0.65, Config: Figure7Config("H100", 1024, 8)},
		{Label: "ScaleFold (A100x1024, DAP8)", Paper: 1.21, Config: Figure7Config("A100", 1024, 8)},
	}
}

// Figure7 reproduces the step-time comparison of Figure 7, running the
// declared cells through the parallel sweep engine.
func Figure7(r *Resolver) []Fig7Row {
	rows := figure7Rows()
	cfgs := make([]StepConfig, len(rows))
	for i, r := range rows {
		cfgs[i] = r.Config
	}
	res := runConfigs(r, cfgs)
	for i := range rows {
		rows[i].Seconds = res[i].MedianStep.Seconds()
	}
	return rows
}

// Rung is one bar of the Figure 8 optimization ladder.
type Rung struct {
	Label   string
	Paper   float64 // cumulative speedup the paper reports
	Config  StepConfig
	Seconds float64
	Speedup float64 // measured cumulative speedup vs rung 0
}

// ladderRungs declares Figure 8's ladder: each entry applies its delta on
// top of every previous rung, starting from the H100 reference (rung 0, the
// only A100 cell, has no delta — it IS the baseline the speedups divide by).
var ladderRungs = []struct {
	Label string
	Paper float64
	Apply func(*StepConfig)
}{
	{"Reference (A100)", 1.00, nil},
	{"H100", 1.66, func(c *StepConfig) {}},
	{"+Batched GEMM", 1.71, func(c *StepConfig) { c.Census.BatchedGEMM = true }},
	{"+Non-blocking dataloader", 1.78, func(c *StepConfig) { c.NonBlocking = true }},
	{"+BF16", 2.22, func(c *StepConfig) { c.Census.BF16 = true }},
	{"+Triton MHA", 2.49, func(c *StepConfig) { c.Census.FusedMHA = true }},
	{"+Triton LayerNorm", 2.92, func(c *StepConfig) { c.Census.FusedLN = true }},
	{"+Fused Adam+SWA", 3.29, func(c *StepConfig) {
		c.Census.FusedAdamSWA, c.Census.BucketedClip = true, true
	}},
	{"+DAP-8, no grad ckpt", 5.90, func(c *StepConfig) {
		c.Census.DAP, c.DAP, c.Ranks = 8, 8, 1024
		c.Census.GradCheckpoint = false
	}},
	{"+CUDA Graph", 7.84, func(c *StepConfig) { c.CUDAGraph = true }},
	{"+Disable GC", 8.91, func(c *StepConfig) { c.DisableGC = true }},
	{"+torch.compile", 10.39, func(c *StepConfig) { c.Census.TorchCompile = true }},
}

// Ladder reproduces Figure 8: optimizations applied cumulatively in the
// paper's order, measured as speedup over the A100 reference. The rung
// configurations come from the ladderRungs declaration; all rungs simulate
// concurrently on the sweep engine.
func Ladder(r *Resolver) []Rung {
	rungs := make([]Rung, len(ladderRungs))
	cfgs := make([]StepConfig, len(ladderRungs))
	cum := ReferenceConfig("H100", 128)
	for i, l := range ladderRungs {
		c := ReferenceConfig("A100", 128)
		if l.Apply != nil {
			l.Apply(&cum)
			c = cum
			c.Name = l.Label
		}
		rungs[i] = Rung{Label: l.Label, Paper: l.Paper, Config: c}
		cfgs[i] = c
	}
	res := runConfigs(r, cfgs)
	base := res[0].MedianStep.Seconds()
	for i := range rungs {
		rungs[i].Seconds = res[i].MedianStep.Seconds()
		rungs[i].Speedup = base / rungs[i].Seconds
	}
	return rungs
}

// Barrier is one Figure 3 stacked-bar component.
type Barrier struct {
	Name  string
	Share float64 // fraction of the actual-vs-optimal gap (column sums to 1)
	Gap   time.Duration
}

// figure3Config returns the §3.1 measurement configuration at DAP-n: DAP
// applied to the otherwise-unoptimized training — blocking loader, no CUDA
// graph, checkpointing freed by DAP's memory savings. The paper's profiled
// measurement runs read far ahead in the dataset, hence the deep prefetch;
// the steady-state stall behaviour belongs to the TTT experiments.
func figure3Config(dapN int) StepConfig {
	cen := workload.Baseline()
	cen.DAP = dapN
	cen.GradCheckpoint = false // §3.1 measures DAP runs with ckpt freed
	return StepConfig{
		Name: fmt.Sprintf("Figure 3 (DAP-%d)", dapN),
		Scenario: scenario.Scenario{
			Platform: "A100", Ranks: 128 * dapN, DAP: dapN,
			Census:   cen,
			Seed:     3,
			Prefetch: 128,
		},
	}
}

// figure3Bars decomposes a simulated DAP-n measurement into the five
// barrier components: the gap between the measured step and the per-factor
// idealized step, computed deterministically from the simulator's accounting
// (the paper subtracts per-factor idealized times; our simulator exposes the
// same quantities directly).
func figure3Bars(dapN int, res cluster.Result) []Barrier {
	c := figure3Config(dapN)
	prog := workload.Full(c.Census)

	// Poor kernel scalability: the extra time DAP-shrunk kernels take
	// beyond perfect 1/n scaling of their DAP-1 durations, caused by
	// falling down the bandwidth-efficiency curve.
	cen1 := c.Census
	cen1.DAP = 1
	prog1 := workload.Full(cen1)
	arch := gpu.A100() // figure3Config's platform
	var kernelGap time.Duration
	for i, g := range prog.Groups {
		if g.Serial {
			continue
		}
		actual, _ := g.Cost(arch, false)
		ideal, _ := prog1.Groups[i].Cost(arch, false)
		ideal /= time.Duration(dapN)
		if actual > ideal {
			kernelGap += actual - ideal
		}
	}

	serialGap := res.Break.SerialPart - res.Break.SerialPart/time.Duration(dapN)

	out := []Barrier{
		{Name: "CPU overhead", Gap: res.Break.CPUExposed},
		{Name: "Imbalance communication", Gap: res.Break.CommWaitMedian + res.Break.DataWaitMedian},
		{Name: "Serial modules", Gap: serialGap},
		{Name: "Poor kernel scalability", Gap: kernelGap},
		{Name: "Communication workload", Gap: res.Break.CommXfer},
	}
	var totalGap time.Duration
	for _, b := range out {
		totalGap += b.Gap
	}
	if totalGap > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Gap) / float64(totalGap)
		}
	}
	return out
}

// Figure3DAPs are the DAP degrees the paper's barrier ablation plots.
var Figure3DAPs = []int{2, 4, 8}

// Figure3 reproduces one barrier-breakdown column.
func Figure3(r *Resolver, dapN int) []Barrier {
	return figure3Bars(dapN, r.must(figure3Config(dapN)))
}

// Figure3All runs the whole barrier ablation as one grid sweep over the DAP
// axis and returns the columns keyed by DAP degree.
func Figure3All(r *Resolver) map[int][]Barrier {
	cfgs := make([]StepConfig, len(Figure3DAPs))
	for i, d := range Figure3DAPs {
		cfgs[i] = figure3Config(d)
	}
	res := runConfigs(r, cfgs)
	out := make(map[int][]Barrier, len(Figure3DAPs))
	for i, d := range Figure3DAPs {
		out[d] = figure3Bars(d, res[i])
	}
	return out
}

// BaselineDAPSpeedups reproduces the §3.1 observation that naively applying
// DAP to the unoptimized training yields only 1.42×/1.57×/≈1.57× at
// DAP-2/4/8. Returned values are speedups over the DAP-1 baseline.
func BaselineDAPSpeedups(r *Resolver) map[int]float64 {
	cfgs := []StepConfig{ReferenceConfig("A100", 128)}
	for _, d := range []int{2, 4, 8} {
		cen := workload.Baseline()
		cen.DAP = d
		cfgs = append(cfgs, StepConfig{Name: "baseline+DAP", Scenario: scenario.Scenario{
			Platform: "A100", Ranks: 128 * d, DAP: d, Census: cen, Seed: 1,
		}})
	}
	res := runConfigs(r, cfgs)
	base := res[0].MedianStep.Seconds()
	out := map[int]float64{}
	for i, d := range []int{2, 4, 8} {
		out[d] = base / res[i+1].MedianStep.Seconds()
	}
	return out
}

// Table1Shares returns the runtime shares and call counts of Table 1,
// measured on the simulated baseline: CPU overhead plus the three kernel
// categories.
type Table1Row struct {
	Kind  string
	Share float64
	Calls int
}

// Table1 measures the kernel-category breakdown on the A100 baseline.
func Table1() []Table1Row {
	prog := workload.Full(workload.Baseline())
	arch := gpu.A100()
	tot := prog.Totals()
	// CPU overhead: exposed launch gaps plus the host-side work the
	// profiler attributes to every launch (driver call, Python dispatch),
	// which Table 1 counts as CPU time even when the GPU stays busy.
	const hostPerLaunch = 2 * time.Microsecond
	cpu := time.Duration(prog.TotalCalls()) * hostPerLaunch
	var times [3]time.Duration // indexed by Category: math, memory, memory-operation
	for _, g := range prog.Groups {
		kernel, exposed := g.Cost(arch, false)
		times[g.Cat] += kernel
		cpu += exposed
	}
	total := cpu + times[0] + times[1] + times[2]
	rows := []Table1Row{
		{Kind: "CPU Overhead", Share: float64(cpu) / float64(total)},
		{Kind: "Math-bounded", Share: float64(times[0]) / float64(total), Calls: tot[workload.CatMath].Calls},
		{Kind: "Memory-bounded", Share: float64(times[1]) / float64(total), Calls: tot[workload.CatMem].Calls},
		{Kind: "Memory-operation", Share: float64(times[2]) / float64(total), Calls: tot[workload.CatMemOp].Calls},
	}
	return rows
}

// PrepTimeCurve returns the sorted Figure 4 curve (n batches, seconds).
func PrepTimeCurve(n int) []float64 {
	gen := dataset.NewGenerator(11)
	return dataset.SortedPrepTimes(gen, dataset.DefaultPrepTimeModel(), n, 7)
}
