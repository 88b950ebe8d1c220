package cluster

import (
	"testing"
	"time"

	"repro/internal/perturb"
)

// TestSimulateZeroPerturbIsByteIdentical pins the hardest invariant of the
// perturbation layer: a zero (or no-op) spec must not move one bit of the
// simulation — no extra RNG draws, no changed accounting — so every
// pre-perturbation figure, sweep row and v3 store record stays valid.
func TestSimulateZeroPerturbIsByteIdentical(t *testing.T) {
	prog := baselineProg()
	for _, tc := range []struct {
		name string
		spec perturb.Spec
	}{
		{"zero", perturb.Spec{}},
		{"noop-slowdown", perturb.Spec{SlowdownProb: 0.9, SlowdownFactor: 1}},
		{"noop-stall", perturb.Spec{StallRate: 3}},            // zero mean
		{"noop-restart-only", perturb.Spec{RestartCost: 600}}, // zero fail prob
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := mustSimulate(t, prog, 16, 4, quickOpts(5))
			o := quickOpts(5)
			o.Perturb = tc.spec
			if got := mustSimulate(t, prog, 16, 4, o); got != clean {
				t.Fatalf("no-op perturbation changed the Result:\n got %+v\nwant %+v", got, clean)
			}
		})
	}
}

// TestSimulateHealthyMetrics pins the healthy-cluster values of the new
// Result fields: goodput exactly 1, no restarts, no stall share, and a
// P99Step consistent with the sorted step times (the max for short runs).
func TestSimulateHealthyMetrics(t *testing.T) {
	r := mustSimulate(t, baselineProg(), 16, 4, quickOpts(9))
	if r.Goodput != 1 {
		t.Errorf("healthy goodput = %v, want exactly 1", r.Goodput)
	}
	if r.Restarts != 0 || r.StallShare != 0 {
		t.Errorf("healthy run reported restarts=%d stall_share=%v", r.Restarts, r.StallShare)
	}
	if r.P99Step < r.MedianStep {
		t.Errorf("p99 %v below p50 %v", r.P99Step, r.MedianStep)
	}
}

// TestSimulateFailuresDegradeGoodput: with a certain per-step failure, every
// step restarts, the wall clock absorbs Steps restart costs plus replays,
// and goodput collapses accordingly while the useful work stays priced.
func TestSimulateFailuresDegradeGoodput(t *testing.T) {
	prog := baselineProg()
	o := quickOpts(5)
	o.Perturb = perturb.Spec{FailProb: 1, RestartCost: 60}
	r := mustSimulate(t, prog, 16, 4, o)
	if r.Restarts != o.Steps {
		t.Fatalf("certain failure must restart every step: got %d of %d", r.Restarts, o.Steps)
	}
	clean := mustSimulate(t, prog, 16, 4, quickOpts(5))
	// Each step pays the failed attempt + restart + replay: wall = 2*step +
	// 60s. MeanStep truncates the per-step division, so allow the 1ns
	// rounding slack of comparing means instead of totals.
	wantMean := 2*clean.MeanStep + 60*time.Second
	if d := r.MeanStep - wantMean; d < -2 || d > 2 {
		t.Fatalf("failed-step wall accounting drifted: mean %v, want %v", r.MeanStep, wantMean)
	}
	if r.Goodput >= 0.5 || r.Goodput <= 0 {
		t.Fatalf("goodput %v, want in (0, 0.5) with every step replayed", r.Goodput)
	}
	// Goodput is useful/wall, so it must agree with the step accounting.
	want := float64(clean.MeanStep) / float64(wantMean)
	if r.Goodput < want*0.999999 || r.Goodput > want*1.000001 {
		t.Fatalf("goodput %v, want ~%v", r.Goodput, want)
	}
}

// TestSimulateStallsInflateStepsAndShare: heavy transient stalls must both
// lengthen the mean step and show up in StallShare; the perturbed and clean
// runs share execution-jitter streams, so the difference is pure injection.
func TestSimulateStallsInflateStepsAndShare(t *testing.T) {
	prog := baselineProg()
	clean := mustSimulate(t, prog, 16, 4, quickOpts(7))
	o := quickOpts(7)
	o.Perturb = perturb.Spec{StallRate: 2, StallMean: 5}
	r := mustSimulate(t, prog, 16, 4, o)
	if r.MeanStep <= clean.MeanStep {
		t.Fatalf("stalls did not lengthen the step: %v vs clean %v", r.MeanStep, clean.MeanStep)
	}
	if r.StallShare <= 0 || r.StallShare >= 1 {
		t.Fatalf("stall share %v, want in (0, 1)", r.StallShare)
	}
	if r.Restarts != 0 {
		t.Fatalf("stall-only spec restarted %d times", r.Restarts)
	}
}

// TestSimulateStragglersSlowTheBarrier: a guaranteed 4x straggler fleet
// must stretch the synchronized step roughly toward the slowdown, and a
// straggler-only spec keeps goodput at 1 (nothing is lost, just slow).
func TestSimulateStragglersSlowTheBarrier(t *testing.T) {
	prog := baselineProg()
	clean := mustSimulate(t, prog, 16, 4, quickOpts(3))
	o := quickOpts(3)
	o.Perturb = perturb.Spec{SlowdownProb: 1, SlowdownFactor: 4}
	r := mustSimulate(t, prog, 16, 4, o)
	if r.MeanStep <= clean.MeanStep {
		t.Fatalf("stragglers did not slow the step: %v vs clean %v", r.MeanStep, clean.MeanStep)
	}
	if r.Goodput != 1 {
		t.Fatalf("straggler-only goodput = %v, want exactly 1 (slow, not lost)", r.Goodput)
	}
}
