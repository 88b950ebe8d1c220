package cluster

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/perturb"
	"repro/internal/workload"
)

// TestSimulateParallelDeterminism pins the SimWorkers contract: the worker
// count is an execution detail, so Simulate must return bit-identical
// Results for every value — on the per-kernel sync march (DAP > 1), at
// degree 1, where each rank is a group of one marching its step as a single
// chunk, and with the ablation that skips the RNG.
// Small rank counts keep it inside the -race -short CI job, which is where
// the sharded march's goroutines get their data-race audit.
func TestSimulateParallelDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		cen   workload.Options
		ranks int
		dapN  int
		tweak func(*Options)
	}{
		{"dap4-march", workload.ScaleFold(4), 32, 4,
			func(o *Options) { o.CUDAGraph = true; o.NonBlockingPipeline = true }},
		{"dap8-march-noisy", workload.ScaleFold(8), 64, 8, nil},
		{"degree1-single-chunk", workload.Baseline(), 16, 1, nil},
		{"perfect-balance", workload.ScaleFold(4), 32, 4,
			func(o *Options) { o.PerfectBalance = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := workload.Census(model.FullConfig(), tc.cen)
			opts := quickOpts(11)
			if tc.tweak != nil {
				tc.tweak(&opts)
			}
			base := mustSimulate(t, prog, tc.ranks, tc.dapN, opts)
			for _, w := range []int{1, 4, 8} {
				po := opts
				po.SimWorkers = w
				if got := mustSimulate(t, prog, tc.ranks, tc.dapN, po); got != base {
					t.Fatalf("SimWorkers=%d diverged from serial:\n got %+v\nwant %+v", w, got, base)
				}
			}
		})
	}
}

// TestSimulatePerturbedDeterminism extends the SimWorkers contract to the
// perturbation layer: every perturbation kind draws from private per-rank
// RNG streams, so Results must stay bit-identical at every worker width —
// on the sync march, at degree 1, where each rank marches its step as a
// single chunk, and under CUDA graphs. Small rank counts keep the matrix
// inside the -race -short CI job, which audits the sharded draws for data
// races.
func TestSimulatePerturbedDeterminism(t *testing.T) {
	kinds := []struct {
		name string
		spec perturb.Spec
	}{
		{"stragglers", perturb.Spec{SlowdownProb: 0.2, SlowdownFactor: 3}},
		{"stalls", perturb.Spec{StallRate: 0.5, StallMean: 2}},
		{"failures", perturb.Spec{FailProb: 0.05, RestartCost: 60}},
		{"combined", perturb.Spec{
			SlowdownProb: 0.1, SlowdownFactor: 2,
			StallRate: 0.2, StallMean: 1,
			FailProb: 0.02, RestartCost: 30,
		}},
	}
	shapes := []struct {
		name  string
		cen   workload.Options
		ranks int
		dapN  int
		tweak func(*Options)
	}{
		{"dap4-march", workload.ScaleFold(4), 32, 4, nil},
		{"dap4-march-graphed", workload.ScaleFold(4), 32, 4,
			func(o *Options) { o.CUDAGraph = true; o.NonBlockingPipeline = true }},
		{"degree1-single-chunk", workload.Baseline(), 16, 1, nil},
	}
	for _, k := range kinds {
		for _, sh := range shapes {
			t.Run(k.name+"/"+sh.name, func(t *testing.T) {
				prog := workload.Census(model.FullConfig(), sh.cen)
				opts := quickOpts(11)
				opts.Perturb = k.spec
				if sh.tweak != nil {
					sh.tweak(&opts)
				}
				base := mustSimulate(t, prog, sh.ranks, sh.dapN, opts)
				for _, w := range []int{1, 4, 8} {
					po := opts
					po.SimWorkers = w
					if got := mustSimulate(t, prog, sh.ranks, sh.dapN, po); got != base {
						t.Fatalf("SimWorkers=%d diverged from serial:\n got %+v\nwant %+v", w, got, base)
					}
				}
			})
		}
	}
}

// TestSimulateStepLoopAllocFree pins the zero-waste claim on the steady
// state: growing the step count must not grow allocations — every per-step
// buffer is hoisted and reused, so extra steps reuse the same scratch. The
// bound below is the per-step allocation budget; the hot path holds it at
// zero (the fixed costs — RNGs, data-wait precompute, result slices — are
// amortized out by the subtraction).
func TestSimulateStepLoopAllocFree(t *testing.T) {
	prog := workload.Census(model.FullConfig(), workload.ScaleFold(4))
	measure := func(steps int) float64 {
		o := quickOpts(3)
		o.Steps = steps
		return testing.AllocsPerRun(3, func() {
			mustSimulate(t, prog, 16, 4, o)
		})
	}
	small, large := measure(4), measure(24)
	perStep := (large - small) / 20
	// The dominant remaining per-step cost would be the old make()s (2+
	// allocs per step); anything above 1 alloc/step means scratch leaked
	// back into the loop.
	if perStep > 1 {
		t.Fatalf("step loop allocates ~%.1f allocs/step (4 steps: %.0f, 24 steps: %.0f); want 0",
			perStep, small, large)
	}
}

// BenchmarkSimulateSimWorkers measures the rank-parallel march: one big
// DAP-8 simulation at increasing SimWorkers. Results are bit-identical by
// contract (asserted above); this records how much wall clock the sharding
// buys.
func BenchmarkSimulateSimWorkers(b *testing.B) {
	prog := workload.Census(model.FullConfig(), workload.ScaleFold(8))
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("simworkers=%d", w), func(b *testing.B) {
			o := defaultOptions(1)
			o.CUDAGraph = true
			o.NonBlockingPipeline = true
			o.SimWorkers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Seed = int64(i + 1)
				mustSimulate(b, prog, 256, 8, o)
			}
		})
	}
}
