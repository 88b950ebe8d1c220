// Package repro's root benchmark harness regenerates every table and figure
// of the ScaleFold paper's evaluation as a testing.B benchmark, and measures
// the real fused-vs-reference kernels. Run:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks report the reproduced quantity as custom metrics
// (b.ReportMetric), so `go test -bench` output doubles as the
// paper-vs-measured record; EXPERIMENTS.md snapshots one run.
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perturb"
	"repro/internal/pipeline"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------- Table 1 ----------

func BenchmarkTable1KernelBreakdown(b *testing.B) {
	var memShare float64
	var calls int
	for i := 0; i < b.N; i++ {
		rows := scalefold.Table1()
		for _, r := range rows {
			if r.Kind == "Memory-bounded" {
				memShare = r.Share
				calls = r.Calls
			}
		}
	}
	b.ReportMetric(100*memShare, "membound-share-%")
	b.ReportMetric(float64(calls), "membound-calls")
	b.ReportMetric(65.03, "paper-share-%")
	b.ReportMetric(97749, "paper-calls")
}

// ---------- Figure 3 ----------

func BenchmarkFig3BarrierAblation(b *testing.B) {
	var imbalance8 float64
	for i := 0; i < b.N; i++ {
		for _, bar := range scalefold.Figure3(&scalefold.Resolver{}, 8) {
			if bar.Name == "Imbalance communication" {
				imbalance8 = bar.Share
			}
		}
	}
	b.ReportMetric(100*imbalance8, "dap8-imbalance-share-%")
	b.ReportMetric(54, "paper-%")
}

// ---------- Figure 4 ----------

func BenchmarkFig4PrepTimeDistribution(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		curve := scalefold.PrepTimeCurve(20000)
		p99 = dataset.Quantile(curve, 0.99)
	}
	b.ReportMetric(p99, "p99-seconds")
}

// ---------- Figure 5 ----------

func BenchmarkFig5PipelineTimeline(b *testing.B) {
	prep := []time.Duration{1 * time.Second, 7 * time.Second, 3 * time.Second}
	var saved time.Duration
	for i := 0; i < b.N; i++ {
		blocking := pipeline.AnalyticSim{PrepTimes: prep, Workers: 2}.Run(5 * time.Second)
		nonBlocking := pipeline.AnalyticSim{PrepTimes: prep, Workers: 2, NonBlocking: true}.Run(5 * time.Second)
		saved = blocking.TotalWait() - nonBlocking.TotalWait()
	}
	b.ReportMetric(saved.Seconds(), "idle-seconds-saved")
}

// ---------- Figure 7 ----------

func BenchmarkFig7StepTime(b *testing.B) {
	var sf8 float64
	for i := 0; i < b.N; i++ {
		for _, r := range scalefold.Figure7(&scalefold.Resolver{}) {
			if r.Label == "ScaleFold (H100x1024, DAP8)" {
				sf8 = r.Seconds
			}
		}
	}
	b.ReportMetric(sf8, "dap8-step-seconds")
	b.ReportMetric(0.65, "paper-seconds")
}

// ---------- Figure 8 ----------

func BenchmarkFig8OptimizationLadder(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		rungs := scalefold.Ladder(&scalefold.Resolver{})
		final = rungs[len(rungs)-1].Speedup
	}
	b.ReportMetric(final, "final-speedup-x")
	b.ReportMetric(10.39, "paper-x")
}

// ---------- Figure 9 ----------

func BenchmarkFig9TTTBreakdown(b *testing.B) {
	var evalShare float64
	for i := 0; i < b.N; i++ {
		bars := scalefold.Figure9(&scalefold.Resolver{})
		evalShare = bars[1].Shares["eval"] // ScaleFold w/o async eval
	}
	b.ReportMetric(100*evalShare, "noasync-eval-share-%")
	b.ReportMetric(43, "paper-%")
}

// ---------- Figure 10 ----------

func BenchmarkFig10TimeToTrain(b *testing.B) {
	var minutes float64
	for i := 0; i < b.N; i++ {
		rows := scalefold.Figure10(&scalefold.Resolver{})
		minutes = rows[2].Minutes
	}
	b.ReportMetric(minutes, "scalefold-ttt-minutes")
	b.ReportMetric(8, "paper-minutes")
}

// ---------- Figure 11 ----------

func BenchmarkFig11PretrainingCurve(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		_, res := scalefold.Figure11(&scalefold.Resolver{})
		hours = res.WallTime.Hours()
	}
	b.ReportMetric(hours, "pretrain-hours")
	b.ReportMetric(10, "paper-bound-hours")
}

// ---------- Real kernels: the §3.3.1 fusion targets ----------

func benchSlice(n int) []float32 {
	rng := rand.New(rand.NewSource(1))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

const lnRows, lnC = 4096, 128

func BenchmarkLayerNormReference(b *testing.B) {
	x := benchSlice(lnRows * lnC)
	gamma := benchSlice(lnC)
	beta := benchSlice(lnC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.LayerNormRef(x, gamma, beta, lnRows, lnC, 1e-5, &st)
	}
}

func BenchmarkLayerNormFused(b *testing.B) {
	x := benchSlice(lnRows * lnC)
	gamma := benchSlice(lnC)
	beta := benchSlice(lnC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.LayerNormFused(x, gamma, beta, lnRows, lnC, 1e-5, &st)
	}
}

func BenchmarkLayerNormBackwardReference(b *testing.B) {
	x := benchSlice(lnRows * lnC)
	gamma := benchSlice(lnC)
	beta := benchSlice(lnC)
	dy := benchSlice(lnRows * lnC)
	var st kernels.Stats
	_, cache := kernels.LayerNormFused(x, gamma, beta, lnRows, lnC, 1e-5, &st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.LayerNormRefBackward(dy, gamma, cache, &st)
	}
}

func BenchmarkLayerNormBackwardFused(b *testing.B) {
	x := benchSlice(lnRows * lnC)
	gamma := benchSlice(lnC)
	beta := benchSlice(lnC)
	dy := benchSlice(lnRows * lnC)
	var st kernels.Stats
	_, cache := kernels.LayerNormFused(x, gamma, beta, lnRows, lnC, 1e-5, &st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.LayerNormFusedBackward(dy, gamma, cache, 32, &st)
	}
}

var mhaP = kernels.MHAParams{B: 8, L: 64, H: 8, D: 16}

func mhaInputs() (q, k, v, g, bias []float32) {
	e := mhaP.H * mhaP.D
	return benchSlice(mhaP.B * mhaP.L * e), benchSlice(mhaP.B * mhaP.L * e),
		benchSlice(mhaP.B * mhaP.L * e), benchSlice(mhaP.B * mhaP.L * e),
		benchSlice(mhaP.H * mhaP.L * mhaP.L)
}

func BenchmarkMHAReference(b *testing.B) {
	q, k, v, g, bias := mhaInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.MHARef(mhaP, q, k, v, g, bias, nil, &st)
	}
}

func BenchmarkMHAFused(b *testing.B) {
	q, k, v, g, bias := mhaInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.MHAFused(mhaP, q, k, v, g, bias, nil, 32, &st)
	}
}

func BenchmarkProjectionsSeparate(b *testing.B) {
	const n, k, m = 512, 128, 128
	w := kernels.ProjectionWeights{
		WQ: benchSlice(k * m), WK: benchSlice(k * m),
		WV: benchSlice(k * m), WG: benchSlice(k * m), K: k, M: m,
	}
	x := benchSlice(n * k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.ProjectSeparate(x, n, w, &st)
	}
}

func BenchmarkProjectionsBatched(b *testing.B) {
	const n, k, m = 512, 128, 128
	w := kernels.ProjectionWeights{
		WQ: benchSlice(k * m), WK: benchSlice(k * m),
		WV: benchSlice(k * m), WG: benchSlice(k * m), K: k, M: m,
	}
	x := benchSlice(n * k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.ProjectBatched(x, n, w, &st)
	}
}

func adamParams(n, sz int) []kernels.ParamTensor {
	ps := make([]kernels.ParamTensor, n)
	for i := range ps {
		ps[i] = kernels.ParamTensor{
			P: benchSlice(sz), G: benchSlice(sz), M: benchSlice(sz),
			V: make([]float32, sz), SWA: benchSlice(sz),
		}
	}
	return ps
}

func BenchmarkAdamSWAReference(b *testing.B) {
	ps := adamParams(200, 512)
	cfg := kernels.DefaultAdamConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		cfg.Step = i + 1
		kernels.AdamSWARef(ps, cfg, 1.0, &st)
	}
}

func BenchmarkAdamSWAFused(b *testing.B) {
	ps := adamParams(200, 512)
	cfg := kernels.DefaultAdamConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		cfg.Step = i + 1
		kernels.AdamSWAFused(ps, cfg, 1.0, nil, &st)
	}
}

func BenchmarkGradNormPerTensor(b *testing.B) {
	ps := adamParams(400, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.GradNormRef(ps, &st)
	}
}

func BenchmarkGradNormBucketed(b *testing.B) {
	ps := adamParams(400, 256)
	var st kernels.Stats
	buckets := kernels.PackBuckets(ps, 1<<20, &st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st kernels.Stats
		kernels.GradNormBucketed(buckets, &st)
	}
}

// ---------- Real model: one miniature training step ----------

func BenchmarkMiniatureTrainStep(b *testing.B) {
	cfg := model.SmallConfig()
	cfg.Crop = 12
	cfg.EvoBlocks = 1
	bench := newBenchTrainer(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.step()
	}
}

// ---------- Sweep engine throughput ----------

// sweepBenchSpec is a 24-cell grid at a small rank count: large enough to
// exercise the worker pool, small enough that one cell is a few
// milliseconds. A fresh cache per call keeps iterations honest (no
// cross-iteration memoization).
func sweepBenchSpec(workers int) scalefold.SweepSpec {
	s := scalefold.DefaultSweepSpec()
	s.Ranks = []int{32}
	s.Steps = 2
	s.Workers = workers
	s.Cache = sweep.NewCache[cluster.Result]()
	s.Resolver = &scalefold.Resolver{Metrics: &scalefold.SweepMetrics{}}
	return s
}

// benchSweep runs one full sweep and returns its CSV bytes plus the cell-
// satisfaction metrics.
func benchSweep(b *testing.B, workers int) ([]byte, *scalefold.SweepMetrics) {
	s := sweepBenchSpec(workers)
	rows, err := s.Run(b.Context(), nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scalefold.SweepTable(rows).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), s.Resolver.Metrics
}

// BenchmarkSweep24Cells measures sweep throughput per worker count — the
// perf-trajectory record CI uploads as BENCH_sweep.json. Reported metrics:
// cells/s and steps/s (simulation throughput), plus the memo hit rate of a
// second, cache-warm pass over the same grid (memo-hit-%: 100 means every
// cell was satisfied by the in-memory memo without re-simulation). Compare
// the workers=1 and workers=8 timings for the parallel speedup (bounded by
// the host's core count: on >= 8 cores the 24-cell grid completes several
// times faster with 8 workers; on a single core the pool degenerates to the
// serial path). Byte-identical output across worker counts is asserted on
// every iteration.
func BenchmarkSweep24Cells(b *testing.B) {
	want, _ := benchSweep(b, 1)
	const cells, stepsPerCell = 24, 2
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, _ := benchSweep(b, workers)
				if !bytes.Equal(got, want) {
					b.Fatalf("workers=%d produced different CSV than workers=1", workers)
				}
			}
			perSec := float64(b.N) * float64(time.Second) / float64(b.Elapsed())
			b.ReportMetric(cells*perSec, "cells/s")
			b.ReportMetric(cells*stepsPerCell*perSec, "steps/s")
		})
	}
	b.Run("memo-warm", func(b *testing.B) {
		var hitRate float64
		for i := 0; i < b.N; i++ {
			s := sweepBenchSpec(4)
			if _, err := s.Run(b.Context(), nil); err != nil {
				b.Fatal(err)
			}
			m := &scalefold.SweepMetrics{} // count the warm pass alone
			s.Resolver = &scalefold.Resolver{Metrics: m}
			if _, err := s.Run(b.Context(), nil); err != nil {
				b.Fatal(err)
			}
			hits := m.MemoHits.Load()
			total := hits + m.Simulated.Load() + m.StoreHits.Load()
			hitRate = 100 * float64(hits) / float64(total)
		}
		b.ReportMetric(hitRate, "memo-hit-%")
	})
}

// ---------- Analytic fast path ----------

// relDurErr is |got-want|/want for durations (0 when want is 0).
func relDurErr(got, want time.Duration) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(want)
}

// BenchmarkAnalyticVsExact prices the closed-form estimator against the
// exact simulator on the default 24-cell exploration grid (cold cache, no
// store): cells/s for each mode, their ratio (speedup-x — the analytic
// acceptance floor is 100x), and the worst relative mean-step error the
// estimate showed against the exact rows of the same grid order. CI uploads
// the pair as BENCH_analytic.json.
func BenchmarkAnalyticVsExact(b *testing.B) {
	modeSpec := func(mode string) scalefold.SweepSpec {
		s := scalefold.DefaultSweepSpec()
		s.Mode = mode
		s.Cache = sweep.NewCache[cluster.Result]()
		s.Resolver = &scalefold.Resolver{Metrics: &scalefold.SweepMetrics{}}
		return s
	}
	const cells = 24
	var exactRows []scalefold.SweepRow
	var exactCellsPerSec float64
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := modeSpec("")
			rows, err := s.Run(b.Context(), nil)
			if err != nil {
				b.Fatal(err)
			}
			exactRows = rows
		}
		exactCellsPerSec = cells * float64(b.N) * float64(time.Second) / float64(b.Elapsed())
		b.ReportMetric(exactCellsPerSec, "cells/s")
	})
	b.Run("analytic", func(b *testing.B) {
		// One untimed pass warms the estimator's process-global census memo
		// (shared with figure runs) and prices those censuses, so the timed
		// passes price steady-state estimation — the memo cache and store
		// stay cold, as in exact.
		if _, err := modeSpec(scenario.ModeAnalytic).Run(b.Context(), nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var rows []scalefold.SweepRow
		for i := 0; i < b.N; i++ {
			s := modeSpec(scenario.ModeAnalytic)
			var err error
			if rows, err = s.Run(b.Context(), nil); err != nil {
				b.Fatal(err)
			}
		}
		perSec := cells * float64(b.N) * float64(time.Second) / float64(b.Elapsed())
		b.ReportMetric(perSec, "cells/s")
		if exactCellsPerSec > 0 {
			b.ReportMetric(perSec/exactCellsPerSec, "speedup-x")
		}
		// Fidelity against the exact sub-benchmark's rows (same grid order);
		// absent when the analytic sub runs alone via -bench filtering.
		if len(exactRows) == len(rows) {
			var maxErr float64
			for i, r := range rows {
				if e := relDurErr(r.Res.MeanStep, exactRows[i].Res.MeanStep); e > maxErr {
					maxErr = e
				}
			}
			b.ReportMetric(100*maxErr, "max-meanstep-err-%")
		}
	})
}

// ---------- Observability overhead ----------

// BenchmarkSweepObs prices the observability layer on the default 24-cell
// sweep: "bare" runs with no metrics and no tracer, so every obs call in the
// engine hits the nil fast path (pinned allocation-free by
// TestObsNilFastPathAllocFree in internal/obs); "instrumented" attaches the
// cell-satisfaction counters and a span tracer recording one lifecycle span
// per cell. CI uploads the pair as BENCH_obs.json — compare the two cells/s
// numbers; the layer's contract is that instrumented stays within ~2% of
// bare on this workload.
func BenchmarkSweepObs(b *testing.B) {
	const cells = 24
	run := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			s := sweepBenchSpec(4)
			if instrument {
				s.Resolver.Trace = obs.NewTracer()
			} else {
				s.Resolver = nil
			}
			if _, err := s.Run(b.Context(), nil); err != nil {
				b.Fatal(err)
			}
			if instrument {
				spans := 0
				for _, ev := range s.Resolver.Trace.Events() {
					if ev.Ph == "X" {
						spans++
					}
				}
				if spans != cells {
					b.Fatalf("trace recorded %d spans, want %d", spans, cells)
				}
			}
		}
		perSec := float64(b.N) * float64(time.Second) / float64(b.Elapsed())
		b.ReportMetric(cells*perSec, "cells/s")
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// ---------- Cluster simulator throughput ----------

// mustSimulate is cluster.Simulate for a plan the benchmark knows is valid.
func mustSimulate(b *testing.B, prog *workload.Program, ranks, dapDegree int, o cluster.Options) cluster.Result {
	r, err := cluster.Simulate(prog, ranks, dapDegree, o)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkClusterSimulateDAP8 measures one cold cluster.Simulate call at
// figure scale — the Figure 7 ScaleFold configuration at DAP-8 — bypassing
// the memo cache and the persistent store entirely, so ns/op and allocs/op
// are the simulator's own. The seed varies per iteration to keep the RNG
// paths honest; reported sim-steps/s is simulated steps per wall-clock
// second, the number CI uploads as BENCH_sim.json.
func BenchmarkClusterSimulateDAP8(b *testing.B) {
	for _, ranks := range []int{256, 1024} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := scalefold.Figure7Config("H100", ranks, 8)
			o, err := cfg.Options()
			if err != nil {
				b.Fatal(err)
			}
			// The census the Figure 7 pipeline itself lowers, so the
			// recorded trajectory matches what figure runs actually cost.
			prog := workload.Census(model.FullConfig(), cfg.Census)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Seed = int64(i + 1)
				mustSimulate(b, prog, ranks, 8, o)
			}
			perSec := float64(b.N) * float64(time.Second) / float64(b.Elapsed())
			b.ReportMetric(float64(o.Steps)*perSec, "sim-steps/s")
		})
	}
}

// BenchmarkSimulatePerturbed measures one cold perturbed cluster.Simulate
// call at figure scale — the Figure 7 ScaleFold configuration at DAP-8
// under combined noise (5% straggler ranks up to 3x, 0.2 stalls/step of 2s
// mean, 1e-3 fail prob with a 60s restart) — alongside the healthy
// BenchmarkClusterSimulateDAP8 numbers. Reported sim-steps/s prices what
// the perturbation draws cost the hot path; goodput records the simulated
// resilience outcome CI tracks in BENCH_perturb.json.
func BenchmarkSimulatePerturbed(b *testing.B) {
	spec := perturb.Spec{
		SlowdownProb: 0.05, SlowdownFactor: 3,
		StallRate: 0.2, StallMean: 2,
		FailProb: 0.001, RestartCost: 60,
	}
	for _, ranks := range []int{256, 1024} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := scalefold.Figure7Config("H100", ranks, 8)
			cfg.Perturb = &spec
			o, err := cfg.Options()
			if err != nil {
				b.Fatal(err)
			}
			prog := workload.Census(model.FullConfig(), cfg.Census)
			var goodput float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Seed = int64(i + 1)
				goodput = mustSimulate(b, prog, ranks, 8, o).Goodput
			}
			perSec := float64(b.N) * float64(time.Second) / float64(b.Elapsed())
			b.ReportMetric(float64(o.Steps)*perSec, "sim-steps/s")
			b.ReportMetric(goodput, "goodput")
		})
	}
}

// ---------- Adaptive search ----------

// BenchmarkSearchCliff prices the adaptive search driver against the
// EXPERIMENTS.md resilience grid: bisecting the failure-rate axis at
// ranks=1024/DAP-8 (24-step cells, 60 s restart) must localize the goodput
// cliff to 0.1 decades using a fraction of the exact simulations the
// equivalent grid — one cell per tolerance step across the 4-decade span,
// plus the endpoint — would spend. Reported metrics: total probes, the
// analytic/exact split (auto mode explores with the closed-form estimator
// and escalates only near the cliff), the grid size it replaces, and the
// resulting probe savings. CI uploads the run as BENCH_search.json.
func BenchmarkSearchCliff(b *testing.B) {
	const gridCells = 41 // ceil(4 decades / 0.1 tolerance) + endpoint
	spec := func(r *scalefold.Resolver) scalefold.SearchSpec {
		return scalefold.SearchSpec{
			Objective:  "maximize-goodput",
			Platform:   "H100",
			Ranks:      []int{1024},
			DAPs:       []int{8},
			FailLo:     1e-6,
			FailHi:     1e-2,
			Tolerance:  0.1,
			Budget:     24,
			Steps:      24,
			Mode:       scenario.ModeAuto,
			SimWorkers: runtime.GOMAXPROCS(0),
			Cache:      sweep.NewCache[cluster.Result](),
			Resolver:   r,
		}
	}
	var f scalefold.Frontier
	var exact int64
	for i := 0; i < b.N; i++ {
		// Cold store and memo every iteration: the benchmark prices
		// discovery, not replay.
		var met scalefold.SweepMetrics
		s := spec(&scalefold.Resolver{Store: store.NewMem[cluster.Result](), Metrics: &met})
		var err error
		if f, err = s.Run(); err != nil {
			b.Fatal(err)
		}
		exact = met.Simulated.Load()
		if f.Cliff == nil || !f.Cliff.Found {
			b.Fatalf("cliff not found: %+v", f.Cliff)
		}
	}
	b.ReportMetric(float64(f.Used), "probes")
	b.ReportMetric(float64(exact), "exact-sims")
	b.ReportMetric(float64(f.Used)-float64(exact), "analytic-probes")
	b.ReportMetric(gridCells, "grid-cells")
	b.ReportMetric(100*float64(exact)/gridCells, "exact-vs-grid-%")
}
